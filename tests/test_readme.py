"""The README's Library quickstart, run as printed.

The block is read from README.md, so an edit to the example is tested as
it stands.  The values the paragraph after it states (stop reason,
objective to the digits printed, step count) must be what the example
prints; a change that moves them must update the README.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return code, section


def _stated(section, solver, symbol, unit):
    """(stop reason, value as printed, count) the README states for a solve,
    e.g. "`occa_alternate` stops at its step cap (`max_outer`, f = 0.99983603
    after 30 steps)"."""
    pattern = (
        rf"`{solver}`[^(]*\(`(\w+)`,\s+{symbol}\s+=\s+([0-9.]+)\s+after\s+(\d+)\s+{unit}\)"
    )
    match = re.search(pattern, section)
    assert match, f"README states no outcome for {solver}"
    reason, value, count = match.groups()
    return reason, value, int(count)


def test_library_quickstart_prints_what_the_readme_states():
    code, section = _quickstart()
    out = io.StringIO()
    namespace = {"__name__": "__readme__"}
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    lines = out.getvalue().split("\n")
    printed = [line.split() for line in lines if line.strip()]
    assert len(printed) == 2

    reason, value, steps = _stated(section, "occa_alternate", "f", "steps")
    decimals = len(value.split(".")[1])
    assert printed[0][1] == reason
    assert f"{float(printed[0][0]):.{decimals}f}" == value
    assert namespace["rep"].outer_iterations == steps

    reason, value, cycles = _stated(section, "rcomcca", "g", "cycles")
    decimals = len(value.split(".")[1])
    assert printed[1][1] == reason
    assert f"{float(printed[1][0]):.{decimals}f}" == value
    assert namespace["multi"].cycles == cycles
