"""Exact optima as ground truth (ROADMAP item 13), in two closed forms.

At k = 1 orthonormality is a unit norm and F does not depend on scale,
so OCCA's optimal f is the top canonical correlation c_1, which
``classical_cca`` computes from principal angles.  Two-view ``rcomcca``
with uniform weights maximizes g = 2f, so g/2 has the same optimum.

For views with flat spectra, S_i S_i^T = c_i I, any k: then
F = tr^2(X^T U_1 V_1^T V_2 U_2^T Y)/k^2, and by von Neumann's trace
inequality F* = (mean of the top k cosines of the principal angles
between the views' row spaces)^2.  Every subproblem's A is c_i I there,
so this form tests the outer loop alone.

Each problem is solved once per solver and setting; the tests read the
cached values.
"""

import functools

import numpy as np
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

from oracles import flat_spectrum_views

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


# the flat-spectrum case: 20 x 15 views, q = 200, k = 3
FLAT_K = 3


@functools.cache
def _flat(seed):
    """The flat-spectrum problem of ``seed`` and its optimum F*."""
    S1, S2, cosines = flat_spectrum_views(20, 15, 200, seed=seed)
    return build_multiview([S1, S2]), float(np.mean(cosines[:FLAT_K]) ** 2)


@functools.cache
def _flat_gap(seed, tight):
    """(F* - F)/F* of ``occa_alternate`` under the tight settings or the defaults."""
    prob, best = _flat(seed)
    if tight:
        alt_cfg, scf_cfg = AltConfig(eps_alt=1e-12, max_outer=3000), ScfConfig(eps_scf=1e-12)
    else:
        alt_cfg, scf_cfg = AltConfig(), ScfConfig()
    f = occa_alternate(prob, FLAT_K, alt_cfg=alt_cfg, scf_cfg=scf_cfg).f_final
    return (best - f * f) / best


@pytest.mark.parametrize("seed", SEEDS)
def test_flat_spectra_have_the_constructed_optimum(seed):
    # the oracle's views are centered and flat, and the singular values of
    # S_1 S_2^T / sqrt(c_1 c_2) are the cosines it names
    S1, S2, cosines = flat_spectrum_views(20, 15, 200, seed=seed)
    for S, c in ((S1, 4.0), (S2, 0.25)):
        assert np.allclose(S @ S.T, c * np.eye(len(S)), rtol=0, atol=1e-13)
        assert np.allclose(S.sum(axis=1), 0.0, rtol=0, atol=1e-13)
    singular = np.linalg.svd(S1 @ S2.T, compute_uv=False)
    assert np.allclose(singular, cosines, rtol=0, atol=1e-13)


@pytest.mark.parametrize("seed", SEEDS)
def test_tight_settings_reach_the_flat_spectrum_optimum(seed):
    assert abs(_flat_gap(seed, True)) <= REACH


@pytest.mark.parametrize("tight", [True, False], ids=["tight", "default"])
@pytest.mark.parametrize("seed", SEEDS)
def test_no_setting_exceeds_the_flat_spectrum_optimum(seed, tight):
    assert _flat_gap(seed, tight) >= -EXCESS


@pytest.mark.xfail(
    strict=True,
    reason="at the default settings occa stops at max_outer 4e-5 to 3e-4 below F*: "
    "the outer loop has no stall stop and its 30 steps do not reach the optimum "
    "(ROADMAP item 3)",
)
def test_default_settings_reach_the_flat_spectrum_optimum():
    assert max(abs(_flat_gap(seed, False)) for seed in SEEDS) <= REACH
