"""Spectral measures of birth-death orthogonal polynomial systems.

Determinate problems are handled through Markov limits, J/S continued
fractions and the elliptic closed forms; indeterminate ones through the
Nevanlinna matrix, dual polynomial series, and N-extremal measure
extraction. A CLI (`bdspec`) exposes classification, transform evaluation
and spectrum export.
"""

__version__ = "0.1.0"

from .contfrac import (
    DiscreteMeasure,
    PoleError,
    gauss_measure,
    j_fraction,
    measure_moment,
    measure_stieltjes,
    s_fraction,
)
from .det_markov import (
    dn_spectral_measure,
    generalized_ratio,
    markov_iterates,
    markov_limit,
)
from .elliptic import (
    EllipticContext,
    delta4,
    dn_fourier_coeff,
    dn_taylor_moments,
    jacobi_scd,
    laplace_dn,
    lemniscate_K0,
    make_context,
    moment_asymptote,
)
from .indet import (
    DET_H,
    DET_S_INDET_H,
    INDET_S_INDET_H,
    Determinacy,
    NevanlinnaValue,
    alpha_limit,
    classify,
    markov_like_limit,
    modified_entries_dual,
    nevanlinna_batch,
    nevanlinna_eval,
    nextremal_measure,
    nextremal_transform,
)
from .numerics import (
    ConvergedLimit,
    ConvergenceError,
    QuadratureError,
    Tolerance,
    integrate,
    tridiag_eigen,
)
from .quartic import (
    AsymptoticReport,
    QuarticSpec,
    asymptotic_checks,
    border_measure,
    friedrichs_transform,
    krein_transform,
    make_quartic_spec,
    quartic_rates,
)
from .recurrence import (
    BirthDeathRates,
    JacobiCoeffs,
    PolySequence,
    custom_rates,
    dual_rates,
    eval_f,
    eval_pq,
    generalized_c_rates,
    jacobi_from_rates,
    pi_alpha,
    pi_sequence,
    stieltjes_cn_rates,
    stieltjes_dn_rates,
)

__all__ = [name for name in dir() if not name.startswith("_")]
