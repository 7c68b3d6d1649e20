"""Source rules: patterns that no line of `src/resoforge/` may match.

Each row gives the modules it reads, the forbidden regex, an optional regex
cut from each line before the match, and one witness line that the row must
reject, so a rule that can no longer fire fails here too.  The rules match
text, so an alias such as `import numpy as xp; xp.sort(a)` escapes them.
"""

import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "resoforge"
MODULES = sorted(path.name for path in SRC.glob("*.py"))

# id: (modules, forbidden, cut, witness)
RULES = {
    # results depend on the arguments and seeds only; memory is won by allocating less, not by tuning malloc
    "environment": (
        MODULES, r"os\.environ|getenv|concurrent\.futures|multiprocessing|threading|ctypes|mallopt|MALLOC_", None,
        "workers = int(os.environ.get('WORKERS', '1'))"),
    # test oracles: scipy.integrate takes 0.61-0.75 s to import, all of resoforge 0.28-0.32 s (2-CPU machine)
    "oracle-import": (
        MODULES, r"^\s*(import\s+([A-Za-z0-9_.]+(\s+as\s+[A-Za-z0-9_]+)?\s*,\s*)*|from\s+)"
                 r"(scipy|mpmath|sympy)([\s.,]|$)", None, "import numpy as np, scipy.linalg as sla"),
    # empirical_genericity's trial keys come from SeedSequence's and Philox's public state
    "private-numpy": (
        MODULES, r"n(umpy|p)\.random\.bit_generator|_coerce_to_uint32_array|n(umpy|p)\._core", None,
        "from numpy._core.umath import cos"),
    # every one-angle sum and phase of the census goes through fourier.trig_values; decorator lines are cut
    "morse-product": (
        ["morse.py"], r"einsum|matmul|np\.dot|tensordot|@|np\.(exp|cos|sin)|cmath", r"^\s*@.*",
        "phase = np.exp(1j * j * theta)"),
    # the series merge by np.add.at into running slot sums, listed in slot order by a mask
    "lieseries-sort": (["lieseries.py"], r"np\.unique|np\.sort\b|lexsort", None, "order = np.lexsort((cols, rows))"),
    # every integer power of an array comes from fourier.power_table; scalar math.pow stays
    "power-call": (
        ["lieseries.py", "standard_form.py"], r"n(umpy|p)\.(float_)?pow(er)?\b|(^|[^.A-Za-z0-9_])pow\(", None,
        "return c * pow(y, d)"),
    # and every ** of standard_form.py takes a number literal
    "power-operator": (["standard_form.py"], r"\*\*\s*([^-\s0-9.]|-[^0-9.]|$)", None, "return y ** d"),
    # cli._emit encodes each fourier.Record; elsewhere only an override starting from super().to_dict() calls one
    "one-encoder": (
        [name for name in MODULES if name != "cli.py"], r"\.to_dict\(", r"super\(\)\.to_dict\(\)",
        "doc = {'params': params.to_dict()}"),
}


def flagged(rule, line):
    _, forbidden, cut, _ = RULES[rule]
    return re.search(forbidden, re.sub(cut, "", line) if cut else line) is not None


@pytest.mark.parametrize("rule", RULES)
def test_no_line_of_src_breaks_the_rule(rule):
    assert flagged(rule, RULES[rule][3])
    hits = [f"{name}:{i}: {line}" for name in RULES[rule][0]
            for i, line in enumerate((SRC / name).read_text().splitlines(), 1) if flagged(rule, line)]
    assert hits == []
