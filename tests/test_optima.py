"""Exact optima as ground truth (ROADMAP item 13), first case: k = 1.

At k = 1 orthonormality is a unit norm and F does not depend on scale,
so OCCA's optimal f is the top canonical correlation c_1, which
``classical_cca`` computes from principal angles.  Two-view ``rcomcca``
with uniform weights maximizes g = 2f, so g/2 has the same optimum.
Each seed's problem is solved once per solver and setting; the tests
read the cached values.
"""

import functools

import pytest

from occakit import (
    AltConfig,
    OmccaConfig,
    ScfConfig,
    SyntheticSpec,
    build_multiview,
    build_weights,
    center,
    classical_cca,
    gen_synthetic,
    occa_alternate,
    rcomcca,
)

SEEDS = (1, 2)
SOLVERS = ("occa", "rcomcca")
# gap to c_1 allowed at the tight settings, and excess over c_1 at any
# setting, both relative to c_1
REACH = 1e-10
EXCESS = 1e-12


@functools.cache
def _problem(seed):
    sx, sy = gen_synthetic(SyntheticSpec(m=20, n=15, q=200, lam=3, seed=seed))
    return build_multiview([center(sx), center(sy)])


@functools.cache
def _top_correlation(seed):
    return float(classical_cca(_problem(seed), 1)[2][0])


@functools.cache
def _value(seed, solver, tight):
    """f of ``occa_alternate``, or g/2 of uniform-weight ``rcomcca``, at
    k = 1, under the tight settings or the defaults."""
    prob = _problem(seed)
    scf_cfg = ScfConfig(eps_scf=1e-12, max_iter=50) if tight else ScfConfig()
    if solver == "occa":
        alt_cfg = AltConfig(eps_alt=1e-12, max_outer=1000) if tight else AltConfig()
        return occa_alternate(prob, 1, alt_cfg=alt_cfg, scf_cfg=scf_cfg).f_final
    cfg = OmccaConfig(eps_outer=1e-15, max_cycles=1000, scf_cfg=scf_cfg) if tight else OmccaConfig()
    return rcomcca(prob, 1, build_weights(prob, "uniform"), cfg=cfg).g_trace[-1] / 2


def _gap(seed, solver, tight):
    c1 = _top_correlation(seed)
    return (c1 - _value(seed, solver, tight)) / c1


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_tight_settings_reach_the_top_correlation(solver, seed):
    assert abs(_gap(seed, solver, True)) <= REACH


@pytest.mark.parametrize("tight", [True, False], ids=["tight", "default"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_no_setting_exceeds_the_top_correlation(solver, seed, tight):
    assert _gap(seed, solver, tight) >= -EXCESS


@pytest.mark.xfail(
    strict=True,
    reason="at the default settings occa stops at max_outer about 1e-2 below c_1 and "
    "rcomcca at max_cycles about 1e-4 below it: the inner stop passes far from "
    "stationarity and the outer loop has no stall stop (ROADMAP item 3)",
)
def test_default_settings_reach_the_top_correlation():
    gaps = [_gap(seed, solver, False) for seed in SEEDS for solver in SOLVERS]
    assert max(abs(gap) for gap in gaps) <= REACH
