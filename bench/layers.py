"""Spans around the public functions of each bdspec module, from outside the package.

:class:`Tracer` replaces a function wherever a bdspec module binds it, so
calls through sibling re-bindings (``from .numerics import integrate`` in
``elliptic`` and ``quartic``, ``classify`` inside ``indet``) are seen too.
Each span keeps (name, start, end, parent) in memory. Self time is a span's
duration minus the durations of its direct children; calls are nested and
single-threaded, so the children never overlap.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


# (module, attribute, metric name, per-call quantities from (args, kwargs, result)).
# Functions with no metric of their own are spanned too, so that their time is
# not charged to the self time of the layer that calls them.
SPANNED = [
    ("recurrence", "BirthDeathRates.tabulate", "recurrence.tabulate",
     {"indices": lambda a, k, r: len(r[0])}),
    ("recurrence", "eval_pq", "recurrence.eval_pq", {"steps": lambda a, k, r: a[1]}),
    ("recurrence", "jacobi_from_rates", "recurrence.jacobi_from_rates", {}),
    ("indet", "classify", "indet.classify", {}),
    ("indet", "nevanlinna_eval", "indet.nevanlinna_eval", {}),
    ("indet", "nevanlinna_batch", "indet.nevanlinna_batch",
     {"points": lambda a, k, r: len(r), "terms": lambda a, k, r: max(v.terms_used for v in r),
      "steps": lambda a, k, r: len(r) * max(v.terms_used for v in r)}),
    ("indet", "alpha_limit", "indet.alpha_limit", {}),
    ("indet", "markov_like_limit", "indet.markov_like_limit", {"terms": lambda a, k, r: r.terms_used}),
    ("indet", "modified_entries_dual", "indet.modified_entries_dual", {}),
    ("indet", "nextremal_measure", "indet.nextremal_measure", {"atoms": lambda a, k, r: r.support.size}),
    ("numerics", "richardson_sum", "numerics.richardson_sum", {"terms": lambda a, k, r: r.terms_used}),
    ("numerics", "integrate", "numerics.integrate", {}),
    ("numerics", "tridiag_eigen", "numerics.tridiag_eigen", {"size": lambda a, k, r: len(r)}),
    ("elliptic", "laplace_dn", "elliptic.laplace_dn", {}),
    ("elliptic", "make_context", "elliptic.make_context", {}),
    ("det_markov", "markov_limit", "det_markov.markov_limit", {"terms": lambda a, k, r: r.terms_used}),
    ("det_markov", "markov_iterates", "det_markov.markov_iterates", {}),
    ("det_markov", "generalized_ratio", "det_markov.generalized_ratio", {}),
    ("det_markov", "dn_spectral_measure", "det_markov.dn_spectral_measure", {}),
    ("contfrac", "gauss_measure", "contfrac.gauss_measure", {}),
    ("contfrac", "s_fraction", "contfrac.s_fraction", {}),
    ("contfrac", "j_fraction", "contfrac.j_fraction", {}),
    ("contfrac", "DiscreteMeasure.to_json", "contfrac.DiscreteMeasure.to_json", {"bytes": lambda a, k, r: len(r)}),
    ("contfrac", "DiscreteMeasure.to_csv", "contfrac.DiscreteMeasure.to_csv", {"bytes": lambda a, k, r: len(r)}),
    ("quartic", "friedrichs_transform", "quartic.friedrichs_transform", {}),
    ("quartic", "krein_transform", "quartic.krein_transform", {}),
    ("quartic", "border_measure", "quartic.border_measure", {}),
    ("quartic", "asymptotic_checks", "quartic.asymptotic_checks", {}),
    ("cli", "main", "cli.main", {}),
    ("cli", "cmd_classify", "cli.classify", {}),
    ("cli", "cmd_transform", "cli.transform", {}),
    ("cli", "cmd_spectrum", "cli.spectrum", {}),
]

# Called thousands of times per quadrature: counted, not spanned.
COUNTED = [("elliptic", "jacobi_scd", "elliptic.jacobi_scd"), ("elliptic", "delta4", "elliptic.delta4")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _spanned(self, name, fn, quantities):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        is_integrate = name == "numerics.integrate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_integrate:
                args, kwargs = self._count_integrand(args, kwargs)
            counts[name + ".calls"] += 1
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            for q, get in quantities.items():
                counts[f"{name}.{q}"] += get(args, kwargs, res)
            return res

        return wrapper

    def _count_integrand(self, args, kwargs):
        counts = self.counts

        def counted(g):
            def f(u):
                counts["numerics.integrate.evals"] += 1
                return g(u)
            return f

        args = (counted(args[0]),) + tuple(args[1:])
        kwargs = {k: counted(v) if k.startswith("f_dist") and v is not None else v for k, v in kwargs.items()}
        return args, kwargs

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every target in every loaded bdspec module that binds it."""
        mods = [m for n, m in sys.modules.items() if n == "bdspec" or n.startswith("bdspec.")]
        for mod, attr, name, quantities in SPANNED:
            self._replace(mod, attr, lambda fn, n=name, q=quantities: self._spanned(n, fn, q), mods)
        for mod, attr, name in COUNTED:
            self._replace(mod, attr, lambda fn, n=name: self._counted(n, fn), mods)

    def _replace(self, mod, attr, make, mods) -> None:
        owner = sys.modules["bdspec." + mod]
        if "." in attr:  # a method: the class attribute is the one binding
            cls_name, meth = attr.split(".")
            owner = getattr(owner, cls_name)
            attr = meth
            targets = [owner]
        else:
            targets = mods
        orig = getattr(owner, attr)
        wrapped = make(orig)
        for m in targets:
            for key, val in list(vars(m).items()):
                if val is orig:
                    self._undo.append((m, key, orig))
                    setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._undo):
            setattr(m, key, orig)
        self._undo.clear()

    # ------------------------------------------------------------- results

    def self_times(self) -> dict[str, float]:
        dur = [s[2] - s[1] for s in self.spans]
        own = list(dur)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                own[s[3]] -= dur[i]
        out: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            out[s[0] + ".self_s"] += t
        return out

    def metrics(self) -> dict[str, float]:
        out = dict(self.counts)
        out.update(self.self_times())
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0, "parent": parent}) + "\n")
