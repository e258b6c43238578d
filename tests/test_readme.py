"""The README's library tour runs as written, and its literal values hold."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour():
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    # The tour's two literal comments, by the line they close.
    literals = {code: float(v) for code, v in re.findall(r"^(.*?)\s+#\s*(-?\d+\.\d+)$", block, re.M)}
    assert len(literals) == 2
    s_fraction = eval("bs.s_fraction(rates, 400, 1.0)", namespace)
    assert abs(s_fraction - literals["bs.s_fraction(rates, 400, 1.0)"]) <= 1e-15
    # alpha to the tolerance the tests hold it to against ALPHA_QUARTIC_REF
    assert abs(namespace["alpha"] - literals["alpha = bs.alpha_limit(q)"]) <= 5e-11
