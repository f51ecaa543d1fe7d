"""The README's Library quickstart, run as printed.

The block is read from README.md, so an edit to the example is tested as
it stands.  The values the paragraph after it states (stop reason,
objective to the digits printed, step count) must be what the example
prints; a change that moves them must update the README.  The same
solves on the example's views scaled by 1e-3 and 1e3 must give the same
answers.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

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


@pytest.mark.xfail(
    strict=True,
    reason="the paper's scaled inner test shrinks like 1/(c^4 + c^3) when every "
    "view is scaled by c, so the answers depend on the data's units (ROADMAP item 3)",
)
def test_quickstart_answers_do_not_depend_on_units():
    from occakit import (
        OmccaConfig,
        SyntheticSpec,
        build_multiview,
        build_two_view,
        build_weights,
        center,
        gen_synthetic,
        occa_alternate,
        rcomcca,
    )

    sx, sy = gen_synthetic(SyntheticSpec(m=20, n=15, q=500, seed=7))
    views = [center(sx), center(sy), center(sx[:8] + sy[:8])]
    answers = []
    for c in (1.0, 1e-3, 1e3):
        f = occa_alternate(build_two_view(c * views[0], c * views[1]), k=3).f_final
        problem = build_multiview([c * v for v in views])
        weights = build_weights(problem, scheme="tree", bandwidth=20.0)
        multi = rcomcca(problem, k=2, weights=weights, cfg=OmccaConfig(scheme="gauss_seidel"))
        answers.append((f, multi.g_trace[-1]))
    for f, g in answers[1:]:
        assert f == pytest.approx(answers[0][0], rel=1e-12)
        assert g == pytest.approx(answers[0][1], rel=1e-12)


def test_library_quickstart_reduces_each_view_once(monkeypatch):
    # build_weights and rcomcca read the one problem the example makes, so
    # its three views are reduced once between them, after the two views
    # of occa_alternate's problem; a bare list handed to each would be
    # wrapped, and reduced, by each
    import occakit.multiset as multiset

    calls = []
    reduce = multiset.reduce_views

    def counting_reduce(views, *args, **kwargs):
        calls.append(len(views))
        return reduce(views, *args, **kwargs)

    monkeypatch.setattr(multiset, "reduce_views", counting_reduce)
    code, _ = _quickstart()
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    assert calls == [2, 3]
