"""The projected per-view step: when 5k < r a view's subproblem is solved
inside a search space of at most 4k columns instead of the view's whole
reduced space.  Pinned against a replay of the full-space alternation
(``oracles.full_space_*``) and checked for the paper's invariants on
instances where every step is projected.
"""

import numpy as np
import pytest

import oracles
from cases import correlated_views
from occakit import (
    AltConfig,
    OmccaConfig,
    ScfConfig,
    SubproblemSpec,
    SyntheticSpec,
    build_two_view,
    build_weights,
    center,
    compute_Ds,
    dist_tr,
    eta,
    gen_synthetic,
    kkt_residual,
    objective_f,
    occa_alternate,
    orthonormalize,
    rcomcca,
    reduce_views,
    scf_solve,
)
from occakit import multiset
from occakit.linalg import scale_of
from occakit.multiset import _cross_blocks, _cycle, _realign, _search_space, _solve_view
from oracles import view_spec


def q_below_n_views():
    sx, sy = gen_synthetic(SyntheticSpec(m=80, n=60, q=40, seed=1))
    return [center(sx), center(sy)]


# (views, k); every view has reduced rank above 5k
INSTANCES = {
    **{
        f"corr{seed}": (lambda seed=seed: (correlated_views((40, 30), 60, seed), 2))
        for seed in range(4)
    },
    "q<n": lambda: (q_below_n_views(), 3),
}


def multiset_kkt(projections, views, weights):
    """Largest raw KKT residual of the reduced view subproblems."""
    reduced = reduce_views(views)
    hat = [rv.U.T @ X for rv, X in zip(reduced, projections)]
    specs = [
        SubproblemSpec(np.diag(rv.sigma**2), compute_Ds(s, hat, weights, reduced))
        for s, rv in enumerate(reduced)
    ]
    return max(kkt_residual(G, spec) for G, spec in zip(hat, specs))


def twoview_kkt(X, Y, prob):
    """Larger raw KKT residual of the X and Y block subproblems."""
    a = float(np.sum(X * (prob.A @ X)))
    b = float(np.sum(Y * (prob.B @ Y)))
    return max(
        kkt_residual(X, SubproblemSpec(prob.A, prob.C @ Y / np.sqrt(b), validate=False)),
        kkt_residual(Y, SubproblemSpec(prob.B, prob.C.T @ X / np.sqrt(a), validate=False)),
    )


@pytest.mark.parametrize("solver", ["gauss_seidel", "jacobi", "occa"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_matches_full_space_replay(name, solver):
    # At default tolerances both runs stop before they converge: on these
    # instances n_1 + n_2 > q, so at least eleven canonical correlations
    # are exactly 1 and the objective creeps toward its supremum on a flat
    # set until a 1e-6 relative change of the cycle sum (or the two-view
    # 30-step cap) stops it.  The two paths take different single-sweep
    # steps, so their stopping points differ by up to 3.1e-6 relative where
    # the stop comes early; runs that reach their fixed point agree to
    # 1e-9.  Hence the 1e-5 bound on the objective and the 2x bound on the
    # KKT residual reached.
    views, k = INSTANCES[name]()
    assert all(5 * k < rv.r for rv in reduce_views(views))
    if solver == "occa":
        prob = build_two_view(*views)
        rep = occa_alternate(prob, k)
        X, Y, _ = oracles.full_space_occa(prob, k, AltConfig(), ScfConfig())
        got, want = rep.f_final, objective_f(X, Y, prob)
        kkt, kkt_ref = twoview_kkt(rep.X, rep.Y, prob), twoview_kkt(X, Y, prob)
    else:
        w = build_weights(views, "uniform")
        cfg = OmccaConfig(scheme=solver)
        rep = rcomcca(views, k, w, cfg=cfg)
        projections, g_trace = oracles.full_space_rcomcca(views, k, w, cfg)
        got, want = rep.g_trace[-1], g_trace[-1]
        kkt, kkt_ref = multiset_kkt(rep.projections, views, w), multiset_kkt(projections, views, w)
    assert abs(got - want) <= 1e-5 * abs(want)
    assert kkt <= 2.0 * kkt_ref


def test_projected_path_invariants(monkeypatch):
    views, k = q_below_n_views(), 3
    inner = []

    def recording_scf_solve(spec, G0=None, cfg=None):
        rep = scf_solve(spec, G0=G0, cfg=cfg)
        inner.append((spec, rep))
        return rep

    monkeypatch.setattr(multiset, "scf_solve", recording_scf_solve)
    reduced = reduce_views(views)
    w = build_weights(views, "uniform")
    gs = rcomcca(views, k, w)
    jac = rcomcca(views, k, w, cfg=OmccaConfig(scheme="jacobi"))
    prob = build_two_view(*views)
    alt = occa_alternate(prob, k)

    # every inner solve ran in a search space, and its D^T G certificate
    # (equal to that of the lifted iterate) stayed PSD
    assert inner and all(k < spec.n <= 4 * k for spec, _ in inner)
    for spec, rep in inner:
        assert min(rep.dtg_min_eigs) >= -1e-10 * scale_of(spec.D)
    for trace in (gs.g_trace, alt.F_trace):
        tr = np.array(trace)
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))
    assert min(alt.xcy_min_eigs) >= -1e-9 * float(np.max(np.abs(prob.C)))
    assert max(alt.xcy_asyms) <= 1e-10
    outputs = list(zip(gs.projections, reduced)) + list(zip(jac.projections, reduced))
    outputs += [(alt.X, reduced[0]), (alt.Y, reduced[1])]
    for X, rv in outputs:
        assert np.max(np.abs(X.T @ X - np.eye(k))) <= 1e-10
        scale = scale_of(X)
        assert np.max(np.abs(X - rv.U @ (rv.U.T @ X))) <= 1e-10 * scale


@pytest.mark.parametrize(("n", "q"), [(30, 200), (80, 40)])
def test_restart_from_converged_point_stays(n, q):
    # identical views: f = 1 at every pair X = Y, so the first run ends at
    # an exact maximizer and a restart from it has nowhere to go
    S = center(np.random.default_rng(n).standard_normal((n, q)))
    prob = build_two_view(S, S.copy())
    first = occa_alternate(prob, 3)
    again = occa_alternate(prob, 3, X0=first.X, Y0=first.Y)
    assert first.termination_reason == again.termination_reason == "grad_tol"
    assert dist_tr(first.X, again.X) <= 1e-8 and dist_tr(first.Y, again.Y) <= 1e-8


def test_search_space_of_k_columns_keeps_the_iterate():
    # K = diag(sigma^2) and both iterates at the leading identity columns:
    # the pull, the gradient and its scaling all lie in span hatX[0], so the
    # search space is hatX[0] itself, an exact KKT point of its subproblem
    sigma = np.linspace(3.0, 1.0, 20)
    K = np.diag(sigma**2)
    hat = [np.eye(20)[:, :3], np.eye(20)[:, :3]]
    rho = np.array([[0.0, 1.0], [1.0, 0.0]])
    blocks = {(0, 1): K, (1, 0): K}
    before = hat[0]
    X, e, sweeps = _solve_view(0, hat, rho, blocks, [sigma, sigma], ScfConfig())
    assert sweeps == 0
    assert X is before
    assert e == eta(before, view_spec(0, hat, rho, blocks, [sigma, sigma]))


@pytest.mark.parametrize("power", [-500, 500])
def test_search_space_is_unit_free(power):
    # column magnitudes from 1e-6 to 1e6: scaled by 2^500 the largest
    # squares overflow (a RuntimeWarning, which fails the test), scaled by
    # 2^-500 the smallest underflow; the basis is the same bits either way
    rng = np.random.default_rng(5)
    G = orthonormalize(rng.standard_normal((40, 3)))
    directions = [rng.standard_normal((40, 3)) * 10.0 ** rng.uniform(-6, 6, 3) for _ in range(3)]
    W = _search_space(G, directions)
    assert W.shape == (40, 12)
    assert np.array_equal(_search_space(G, [np.ldexp(d, power) for d in directions]), W)


def q_below_n_problem():
    """(hatX at the leading identity columns, rho, blocks, sigmas) of the
    q < n instance under uniform weights, k = 3."""
    views = q_below_n_views()
    reduced = reduce_views(views)
    rho = build_weights(views, "uniform").rho
    hat = [np.eye(rv.r)[:, :3].copy() for rv in reduced]
    return hat, rho, _cross_blocks(reduced, [(0, 1)]), [rv.sigma for rv in reduced]


@pytest.mark.parametrize("scheme", ["gauss_seidel", "jacobi"])
def test_a_cycle_depends_on_the_iterates_alone(scheme):
    # a fresh loop started from the iterates after cycle 3 takes exactly
    # the running loop's cycle 4: no step carries state across cycles
    hat, rho, blocks, sigmas = q_below_n_problem()

    def cycle(hat):
        # one cycle as the solvers run it, Jacobi's realignment included
        out = _cycle(hat, rho, blocks, sigmas, scheme, ScfConfig())
        if scheme == "jacobi":
            _realign(hat, rho, blocks, sigmas)
        return out

    for _ in range(3):
        cycle(hat)
    restarted = [h.copy() for h in hat]
    _, loop_g, sweeps = cycle(hat)
    _, loop_g_fresh, sweeps_fresh = cycle(restarted)
    assert loop_g_fresh == loop_g and sweeps_fresh == sweeps
    assert all(np.array_equal(a, b) for a, b in zip(restarted, hat))


def test_jacobi_keeps_an_iterate_whose_solve_ended_lower(monkeypatch):
    hat, rho, blocks, sigmas = q_below_n_problem()
    start = hat[0]
    e_start = eta(start, view_spec(0, hat, rho, blocks, sigmas))
    _, e_1, _ = _solve_view(1, hat, rho, blocks, sigmas, ScfConfig())
    calls = []

    def lowering_scf_solve(spec, G0=None, cfg=None):
        # view 0's solve (the first of the cycle) ends below its start
        rep = scf_solve(spec, G0=G0, cfg=cfg)
        calls.append(rep)
        if len(calls) == 1:
            rep.solution = np.eye(spec.n)[:, spec.k:2 * spec.k]
            assert eta(rep.solution, spec) < eta(G0, spec)
        return rep

    monkeypatch.setattr(multiset, "scf_solve", lowering_scf_solve)
    _, loop_g, _ = _cycle(hat, rho, blocks, sigmas, "jacobi", ScfConfig())
    assert len(calls) == 2
    assert loop_g == e_start + e_1
    assert hat[0] is start
    # the realignment sweep rotates view 0 only inside its own span
    _realign(hat, rho, blocks, sigmas)
    assert dist_tr(hat[0], start) <= 1e-12


def test_zero_ratio_iterate_takes_the_projected_step(monkeypatch):
    # a rank-12 view at k = 2 whose pull has zero rows at the support of
    # hatX[0], so tr(hatX_0^T D_0) = 0: the step moves hatX[0] off that set
    # first, and then rank alone picks the search space of at most 4k columns
    rng = np.random.default_rng(3)
    K = rng.standard_normal((12, 6))
    K[:2] = 0.0
    hat = [np.eye(12)[:, :2], orthonormalize(rng.standard_normal((6, 2)))]
    rho = np.array([[0.0, 1.0], [1.0, 0.0]])
    blocks = {(0, 1): K, (1, 0): K.T}
    sigmas = [np.linspace(3.0, 1.0, 12), np.linspace(2.0, 1.0, 6)]
    D = multiset._pull(0, hat, rho, blocks, sigmas)
    assert np.trace(hat[0].T @ D) == 0.0
    sizes = []

    def recording_scf_solve(spec, G0=None, cfg=None):
        sizes.append(spec.n)
        return scf_solve(spec, G0=G0, cfg=cfg)

    monkeypatch.setattr(multiset, "scf_solve", recording_scf_solve)
    X, e, _ = _solve_view(0, hat, rho, blocks, sigmas, ScfConfig())
    assert sizes and all(n <= 4 * 2 for n in sizes)
    assert np.max(np.abs(X.T @ X - np.eye(2))) <= 1e-10
    assert np.trace(X.T @ D) > 0.0
    assert e == eta(X, view_spec(0, hat, rho, blocks, sigmas))
