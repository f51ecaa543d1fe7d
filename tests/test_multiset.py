import threading

import numpy as np
import pytest

import occakit.multiset as multiset
import occakit.scf as scf_module
from occakit import (
    AltConfig,
    ContractViolation,
    DegenerateViewError,
    IsolatedViewError,
    OmccaConfig,
    RankDeficiencyError,
    ScfConfig,
    SubproblemSpec,
    SyntheticSpec,
    align,
    build_multiview,
    build_two_view,
    build_weights,
    center,
    compute_Ds,
    dist_tr,
    eta,
    g_objective,
    gen_synthetic,
    objective_F,
    objective_f,
    occa_alternate,
    orthonormalize,
    pair_align,
    rcomcca,
    reduce_views,
    scf_solve,
    total_correlation,
)
from cases import correlated_views, random_stiefel
from occakit.errors import ViewError
from occakit.linalg import scale_of
from occakit.weighting import WeightMatrix


def three_views(q=40, sizes=(8, 6, 7), seed=0, shared=3, noise=0.05):
    """Correlated random views driven by a common latent block."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((shared, q))
    views = []
    for n_i in sizes:
        P = rng.standard_normal((n_i, shared))
        views.append(center(P @ Z + noise * rng.standard_normal((n_i, q))))
    return views


# criterion-8 tolerances: every inner solve runs to its fixed point
CRITERION8 = {
    "eps_outer": 1e-15, "max_cycles": 80, "scf_cfg": ScfConfig(eps_scf=1e-12, max_iter=50)
}


def identity_hats(reduced, k):
    return [np.eye(rv.r)[:, :k].copy() for rv in reduced]


class TestReduceViews:
    def test_full_row_rank_exact_reconstruction(self):
        rng = np.random.default_rng(1)
        S = center(rng.standard_normal((4, 30)))
        (rv,) = reduce_views([S])
        assert rv.r == 4
        assert np.max(np.abs(rv.U @ np.diag(rv.sigma) @ rv.V.T - S)) <= 1e-10

    def test_duplicated_row_drops_rank(self):
        rng = np.random.default_rng(2)
        S = rng.standard_normal((3, 30))
        S = center(np.vstack([S, S[0]]))
        (rv,) = reduce_views([S])
        assert rv.r == 3

    def test_centering_removes_one_dimension(self):
        rng = np.random.default_rng(3)
        S = center(rng.standard_normal((100, 10)))
        (rv,) = reduce_views([S])
        assert rv.r <= 9
        # independent rank oracle
        assert rv.r == np.linalg.matrix_rank(S)

    def test_zero_view_rejected(self):
        from occakit import DegenerateViewError

        with pytest.raises(DegenerateViewError):
            reduce_views([np.zeros((3, 10))])

    def test_factors_orthonormal_and_ordered(self):
        rng = np.random.default_rng(4)
        S = center(rng.standard_normal((6, 25)))
        (rv,) = reduce_views([S])
        assert np.max(np.abs(rv.U.T @ rv.U - np.eye(rv.r))) <= 1e-10
        assert np.max(np.abs(rv.V.T @ rv.V - np.eye(rv.r))) <= 1e-10
        assert np.all(np.diff(rv.sigma) <= 0)
        assert np.all(rv.sigma > 0)

    def test_truncation_stays_within_tolerance(self):
        rng = np.random.default_rng(5)
        U = orthonormalize(rng.standard_normal((6, 3)))
        V = orthonormalize(rng.standard_normal((20, 3)))
        S = U @ np.diag([3.0, 1.0, 1e-20]) @ V.T
        (rv,) = reduce_views([S])
        assert rv.r == 2
        err = np.max(np.abs(rv.U @ np.diag(rv.sigma) @ rv.V.T - S))
        tol = max(S.shape) * np.finfo(float).eps
        assert err <= tol * 3.0


class TestComputeDs:
    def test_two_view_single_term(self):
        views = three_views(sizes=(5, 4), seed=5)[:2]
        reduced = reduce_views(views)
        w = build_weights(views, "uniform")
        hats = identity_hats(reduced, 2)
        D0 = compute_Ds(0, hats, w, reduced)
        rv0, rv1 = reduced
        SX = rv1.sigma[:, None] * hats[1]
        expected = (
            w.rho[0, 1]
            * (rv0.sigma[:, None] * (rv0.V.T @ (rv1.V @ SX)))
            / np.sqrt(np.sum(SX * SX))
        )
        assert np.allclose(D0, expected, atol=1e-12)

    def test_matches_term_by_term_oracle(self):
        views = three_views(seed=6)
        reduced = reduce_views(views)
        w = build_weights(views, "uniform")
        rng = np.random.default_rng(7)
        hats = [orthonormalize(rng.standard_normal((rv.r, 2))) for rv in reduced]
        for s in range(3):
            rv = reduced[s]
            acc = np.zeros((views[0].shape[1], 2))
            for j in range(3):
                if j == s:
                    continue
                rj = reduced[j]
                SX = rj.sigma[:, None] * hats[j]
                acc += w.rho[s, j] * (rj.V @ SX) / np.sqrt(np.sum(SX * SX))
            expected = rv.sigma[:, None] * (rv.V.T @ acc)
            assert np.allclose(compute_Ds(s, hats, w, reduced), expected, atol=1e-12)

    def test_tree_path_term_counts(self):
        # a path graph 0-1-2: middle view pulls from two neighbors, the
        # ends from one each
        views = three_views(seed=8)
        reduced = reduce_views(views)
        rho = np.zeros((3, 3))
        rho[0, 1] = rho[1, 0] = 0.5
        rho[1, 2] = rho[2, 1] = 0.5
        w = WeightMatrix.custom(rho)
        hats = identity_hats(reduced, 1)
        assert compute_Ds(1, hats, w, reduced).shape == (reduced[1].r, 1)
        # the end views must not see each other: D_0 built from view 1
        # alone equals D_0 built with view 2 replaced by garbage
        rng = np.random.default_rng(8)
        hats_garbage = list(hats)
        hats_garbage[2] = orthonormalize(rng.standard_normal((reduced[2].r, 1)))
        assert np.allclose(
            compute_Ds(0, hats, w, reduced),
            compute_Ds(0, hats_garbage, w, reduced),
            atol=0,
        )
        with pytest.raises(IsolatedViewError):
            rho_bad = np.zeros((3, 3))
            rho_bad[0, 1] = rho_bad[1, 0] = 1.0
            compute_Ds(2, hats, WeightMatrix.custom(rho_bad), reduced)

    def test_matches_term_by_term_oracle_sparse_weights(self):
        views = three_views(seed=22)
        reduced = reduce_views(views)
        w = build_weights(views, "tree")
        rng = np.random.default_rng(23)
        hats = [orthonormalize(rng.standard_normal((rv.r, 2))) for rv in reduced]
        for s in range(3):
            rv = reduced[s]
            acc = np.zeros((views[0].shape[1], 2))
            for j in range(3):
                if j == s or w.rho[s, j] == 0.0:
                    continue
                rj = reduced[j]
                SX = rj.sigma[:, None] * hats[j]
                acc += w.rho[s, j] * (rj.V @ SX) / np.sqrt(np.sum(SX * SX))
            expected = rv.sigma[:, None] * (rv.V.T @ acc)
            assert np.allclose(compute_Ds(s, hats, w, reduced), expected, atol=1e-12)


@pytest.mark.parametrize("power", [0, -300, 300])
@pytest.mark.parametrize("first", ["rho_hat", "blocks"])
def test_shared_pair_products_change_no_bit(power, first):
    # rho_hat (unit spectra) and blocks() (raw spectra) scale one
    # V_i^T V_j per pair, read in either order, at any data scale
    views = [np.ldexp(v, power) for v in three_views(seed=44)]
    pairs = [(0, 1), (0, 2), (1, 2)]
    ref_rho = build_multiview(views).rho_hat
    prob = build_multiview(views)
    ref_blocks = multiset._cross_blocks(prob.reduced(), pairs)
    if first == "rho_hat":
        rho, blocks = prob.rho_hat, prob.blocks(pairs)
    else:
        blocks, rho = prob.blocks(pairs), prob.rho_hat
    assert np.array_equal(rho, ref_rho)
    assert all(np.array_equal(blocks[key], ref_blocks[key]) for key in ref_blocks)


class TestGObjective:
    def test_identical_views_equal_hats(self):
        rng = np.random.default_rng(9)
        S = center(rng.standard_normal((5, 30)))
        views = [S, S.copy()]
        reduced = reduce_views(views)
        w = build_weights(views, "uniform")
        hats = identity_hats(reduced, 1)
        # single pair: per-pair correlation is 1, ordered sum doubles it
        assert g_objective(hats, w, reduced) == pytest.approx(2 * w.rho[0, 1], rel=1e-10)

    def test_zero_cross_covariance(self):
        S1 = center(np.array([[1.0, -1.0, 1.0, -1.0]]))
        S2 = center(np.array([[1.0, 1.0, -1.0, -1.0]]))
        reduced = reduce_views([S1, S2])
        rho = np.zeros((2, 2))
        rho[0, 1] = rho[1, 0] = 1.0
        w = WeightMatrix.custom(rho)
        hats = identity_hats(reduced, 1)
        assert g_objective(hats, w, reduced) == pytest.approx(0.0, abs=1e-12)

    def test_equals_total_correlation_through_correspondence(self):
        views = three_views(seed=10)
        reduced = reduce_views(views)
        w = build_weights(views, "tree")
        rng = np.random.default_rng(11)
        hats = [orthonormalize(rng.standard_normal((rv.r, 2))) for rv in reduced]
        g = g_objective(hats, w, reduced)
        projections = [rv.U @ hx for rv, hx in zip(reduced, hats)]
        f = total_correlation(projections, views, w)
        assert g == pytest.approx(f, rel=1e-10)


class TestRcomcca:
    def test_two_views_consistent_with_alternating_solver(self):
        views = three_views(sizes=(9, 7), seed=12, q=50)[:2]
        w = build_weights(views, "uniform")
        rep = rcomcca(
            views,
            2,
            w,
            cfg=OmccaConfig(
                eps_outer=1e-10,
                max_cycles=300,
                scheme="gauss_seidel",
                scf_cfg=ScfConfig(eps_scf=1e-8, max_iter=100),
            ),
        )
        # same optimization in explicitly reduced coordinates
        reduced = reduce_views(views)
        red_views = [np.diag(rv.sigma) @ rv.V.T for rv in reduced]
        prob = build_two_view(red_views[0], red_views[1])
        alt = occa_alternate(
            prob,
            2,
            alt_cfg=AltConfig(eps_alt=1e-12, max_outer=300),
            scf_cfg=ScfConfig(eps_scf=1e-8, max_iter=100),
        )
        assert dist_tr(reduced[0].U.T @ rep.projections[0], alt.X) <= 1e-4
        assert dist_tr(reduced[1].U.T @ rep.projections[1], alt.Y) <= 1e-4

    def test_gauss_seidel_monotone_g(self):
        views = three_views(seed=13)
        w = build_weights(views, "uniform")
        rep = rcomcca(views, 2, w, cfg=OmccaConfig(scheme="gauss_seidel"))
        tr = np.array(rep.g_trace)
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))

    def test_jacobi_close_to_gauss_seidel(self):
        views = three_views(seed=14)
        w = build_weights(views, "uniform")
        g_gs = rcomcca(views, 2, w, cfg=OmccaConfig(scheme="gauss_seidel")).g_trace[-1]
        g_j = rcomcca(views, 2, w, cfg=OmccaConfig(scheme="jacobi")).g_trace[-1]
        assert abs(g_gs - g_j) <= 0.05 * max(abs(g_gs), abs(g_j))

    def test_projections_feasible(self):
        views = three_views(seed=15)
        w = build_weights(views, "tree")
        rep = rcomcca(views, 2, w)
        reduced = reduce_views(views)
        for X, rv in zip(rep.projections, reduced):
            assert np.max(np.abs(X.T @ X - np.eye(2))) <= 1e-9
            # range constraint: X lives inside the span of its view
            assert np.max(np.abs(X - rv.U @ (rv.U.T @ X))) <= 1e-9

    def test_tree_weighting_term_count(self):
        views = three_views(seed=16)
        w = build_weights(views, "tree")
        rep = rcomcca(views, 2, w, cfg=OmccaConfig(scheme="gauss_seidel"))
        assert all(c == 2 * (len(views) - 1) for c in rep.ds_terms_per_cycle)
        rep_j = rcomcca(views, 2, w, cfg=OmccaConfig(scheme="jacobi"))
        assert all(c == 2 * (len(views) - 1) for c in rep_j.ds_terms_per_cycle)

    def test_jacobi_reaches_gauss_seidel_at_tight_tolerances(self):
        inner = ScfConfig(eps_scf=1e-12, max_iter=50)
        for seed in (6000, 6001, 6002):
            views = three_views(q=50, sizes=(9, 7), seed=seed)
            w = build_weights(views, "uniform")
            g = {
                scheme: rcomcca(
                    views, 2, w,
                    cfg=OmccaConfig(eps_outer=1e-15, max_cycles=80, scheme=scheme, scf_cfg=inner),
                ).g_trace[-1]
                for scheme in ("jacobi", "gauss_seidel")
            }
            assert abs(g["jacobi"] - g["gauss_seidel"]) <= 1e-3

    @pytest.mark.parametrize(
        ("views_kw", "weighting", "cfg_kw"),
        [
            pytest.param({"seed": seed}, weighting, {}, id=f"seed{seed}-{weighting}")
            for seed in range(5)
            for weighting in ("uniform", "tree")
        ]
        + [
            pytest.param({"q": 50, "sizes": (9, 7), "seed": seed}, "uniform", CRITERION8,
                         id=f"criterion8-{seed}")
            for seed in (6000, 6001, 6002)
        ],
    )
    def test_jacobi_monotone_and_level_with_gauss_seidel(self, views_kw, weighting, cfg_kw):
        # the extrapolation is kept only where it raises g, and the cycle
        # map itself does not lower it on these instances
        views = three_views(**views_kw)
        w = build_weights(views, weighting)
        jac = rcomcca(views, 2, w, cfg=OmccaConfig(scheme="jacobi", **cfg_kw))
        gs = rcomcca(views, 2, w, cfg=OmccaConfig(scheme="gauss_seidel", **cfg_kw))
        tr = np.array(jac.g_trace)
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))
        assert jac.g_trace[-1] >= gs.g_trace[-1] - 1e-3
        assert jac.extrapolated and not gs.extrapolated

    def test_jacobi_thread_count_invariance(self):
        views = three_views(seed=17)
        w = build_weights(views, "uniform")
        cfg = OmccaConfig(scheme="jacobi")
        a = rcomcca(views, 2, w, cfg=cfg, threads=1)
        b = rcomcca(views, 2, w, cfg=cfg, threads=4)
        for Xa, Xb in zip(a.projections, b.projections):
            assert np.array_equal(Xa, Xb)
        assert a.g_trace == b.g_trace

    def test_k_exceeding_reduced_rank_names_view(self):
        views = three_views(seed=18)
        # view 1 gets rank 2: two latent dimensions only
        rng = np.random.default_rng(18)
        q = views[0].shape[1]
        low = rng.standard_normal((6, 2)) @ rng.standard_normal((2, q))
        views[1] = center(low)
        w = build_weights(views, "uniform")
        with pytest.raises(RankDeficiencyError) as exc:
            rcomcca(views, 3, w)
        assert exc.value.view == 1

    def test_k_equal_to_reduced_rank_names_view(self):
        sx, sy = gen_synthetic(SyntheticSpec(m=12, n=10, q=6, seed=3))
        views = [center(sx), center(sy)]
        assert [rv.r for rv in reduce_views(views)] == [5, 5]
        with pytest.raises(RankDeficiencyError, match="view 0") as exc:
            rcomcca(views, 5, build_weights(views, "uniform"))
        assert exc.value.view == 0

    def test_scale_overflow_names_view(self):
        # at 1e-160 the subproblem's xi(G) is so small that 2/xi^2
        # overflows (view 0); at 1e-170 view 1's projected variance
        # underflows to 0 in view 0's pull (view 1)
        sx, sy = gen_synthetic(SyntheticSpec(m=20, n=15, q=300, seed=1))
        for scale, view in [(1e-160, 0), (1e-170, 1)]:
            views = [scale * center(sx), scale * center(sy)]
            with pytest.raises(ViewError, match=f"view {view} .*rescale the data") as exc:
                rcomcca(views, 3, build_weights(views, "uniform"))
            assert exc.value.view == view

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one_rejected(self, threads):
        views = three_views(seed=19)
        w = build_weights(views, "uniform")
        with pytest.raises(ContractViolation, match="threads"):
            rcomcca(views, 1, w, cfg=OmccaConfig(scheme="jacobi"), threads=threads)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_outer_tolerance_must_be_positive_and_finite(self, eps):
        with pytest.raises(ContractViolation, match="eps_outer"):
            OmccaConfig(eps_outer=eps)

    def test_needs_two_views(self):
        views = three_views(seed=19)[:1]
        w = WeightMatrix.custom(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ContractViolation):
            rcomcca(views, 1, w)

    def test_one_dimensional_view_rejected_by_name(self):
        views = three_views(q=20, seed=19)[:1]
        w = WeightMatrix.custom(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ContractViolation, match="view 0 must be 2-d"):
            rcomcca([np.ones(20), views[0]], 1, w)
        with pytest.raises(ContractViolation, match="view 1 must be 2-d"):
            rcomcca([views[0], np.ones(20)], 1, w)

    def test_uncentered_view_named(self):
        views = three_views(seed=31)
        w = build_weights(views, "uniform")
        views[2] = views[2] + 1.0
        with pytest.raises(ViewError, match="view 2 is not centered") as exc:
            rcomcca(views, 1, w)
        assert exc.value.view == 2

    def test_isolated_view_under_custom_sparse_weights(self):
        views = three_views(seed=20)
        rho = np.zeros((3, 3))
        rho[0, 1] = rho[1, 0] = 1.0  # view 2 isolated
        w = WeightMatrix.custom(rho)
        with pytest.raises(IsolatedViewError):
            rcomcca(views, 1, w)

    def test_five_views_tree_weighting(self):
        views = three_views(q=60, sizes=(8, 6, 7, 9, 5), seed=24)
        w = build_weights(views, "tree")
        rep = rcomcca(views, 2, w, cfg=OmccaConfig(scheme="gauss_seidel"))
        tr = np.array(rep.g_trace)
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))
        assert all(c == 2 * 4 for c in rep.ds_terms_per_cycle)
        for X in rep.projections:
            assert np.max(np.abs(X.T @ X - np.eye(2))) <= 1e-9

    def test_one_cycle_replays_through_public_functions(self):
        # nearly uniform weights: every pair must still pull with its own
        # weight, not with a shared one
        views = three_views(seed=26)
        rho = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0 + 1e-6], [1.0, 1.0 + 1e-6, 0.0]])
        w = WeightMatrix.custom(rho)
        cfg = OmccaConfig(max_cycles=1, scheme="gauss_seidel")
        rep = rcomcca(views, 2, w, cfg=cfg)
        reduced = reduce_views(views)
        hats = identity_hats(reduced, 2)
        for s, rv in enumerate(reduced):
            spec = SubproblemSpec(np.diag(rv.sigma**2), compute_Ds(s, hats, w, reduced))
            sub = scf_solve(spec, G0=hats[s], cfg=cfg.scf_cfg)
            if sub.eta_trace[-1] >= eta(hats[s], spec):
                hats[s] = sub.solution
        # the realignment that ends every cycle, in view order
        for s in range(len(hats)):
            hats[s] = align(hats[s], compute_Ds(s, hats, w, reduced))
        for X, rv, hx in zip(rep.projections, reduced, hats):
            assert np.max(np.abs(X - rv.U @ hx)) <= 1e-12
        assert rep.g_trace[0] == pytest.approx(g_objective(hats, w, reduced), rel=1e-12)

    def test_badly_scaled_views_still_solve(self):
        views = three_views(seed=25)
        views[1] = views[1] * 1e6
        w = build_weights(views, "uniform")
        rep = rcomcca(views, 2, w, cfg=OmccaConfig(scheme="gauss_seidel"))
        # the objective is scale-invariant per view, so huge scales must
        # not break feasibility or monotonicity
        tr = np.array(rep.g_trace)
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))
        assert rep.g_trace[-1] <= 2.0 + 1e-9


@pytest.mark.parametrize("n_weights", [3, 2])
def test_weights_for_another_view_count_rejected(n_weights):
    views = three_views(seed=27)[: 5 - n_weights]
    rho = np.ones((n_weights, n_weights)) - np.eye(n_weights)
    with pytest.raises(ContractViolation, match=f"{n_weights} views, got {5 - n_weights}"):
        rcomcca(views, 1, WeightMatrix.custom(rho))


@pytest.mark.parametrize("n_weights", [3, 2])
@pytest.mark.parametrize("evaluator", ["total_correlation", "g_objective", "compute_Ds"])
def test_evaluators_reject_weights_for_another_view_count(evaluator, n_weights):
    views = three_views(seed=27)[: 5 - n_weights]
    reduced = reduce_views(views)
    hats = identity_hats(reduced, 1)
    w = WeightMatrix.custom(np.ones((n_weights, n_weights)) - np.eye(n_weights))
    call = {
        "total_correlation": lambda: total_correlation(
            [rv.U @ h for rv, h in zip(reduced, hats)], views, w),
        "g_objective": lambda: g_objective(hats, w, reduced),
        "compute_Ds": lambda: compute_Ds(0, hats, w, reduced),
    }[evaluator]
    with pytest.raises(ContractViolation, match=f"{n_weights} views, got {5 - n_weights}"):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", [0, 2])
@pytest.mark.parametrize("evaluator", ["total_correlation", "objective_f", "objective_F"])
def test_projection_evaluators_reject_a_non_finite_projection(evaluator, position, bad):
    views = three_views(seed=28) if evaluator == "total_correlation" else three_views(seed=28)[:2]
    position = min(position, len(views) - 1)
    reduced = reduce_views(views)
    projs = [rv.U @ h for rv, h in zip(reduced, identity_hats(reduced, 2))]
    projs[position] = projs[position].copy()
    projs[position][1, 1] = bad
    w = build_weights(views, "uniform")
    call = {
        "total_correlation": lambda: total_correlation(projs, views, w),
        "objective_f": lambda: objective_f(*projs, build_two_view(*views)),
        "objective_F": lambda: objective_F(*projs, build_two_view(*views)),
    }[evaluator]
    with pytest.raises(ViewError, match=f"projection {position} contains non-finite") as exc:
        call()
    assert exc.value.view == position


def _bad_iterates(reduced, fault):
    hats = identity_hats(reduced, 2)
    if fault == "rows":
        hats[1] = np.eye(reduced[1].r - 2, 2)
    elif fault == "k":
        hats[1] = np.eye(reduced[1].r, 3)
    else:
        hats[1] = hats[1].copy()
        hats[1][0, 0] = fault
    return hats


@pytest.mark.parametrize(
    "fault, message",
    [("rows", r"iterate 1 has shape \(\d+, 2\), expected \(\d+, k\)"),
     ("k", "iterates disagree on k"),
     (np.nan, "iterate 1 contains non-finite"),
     (np.inf, "iterate 1 contains non-finite")],
    ids=["rows", "k", "nan", "inf"],
)
@pytest.mark.parametrize("evaluator", ["g_objective", "compute_Ds"])
def test_iterate_evaluators_check_every_iterate(evaluator, fault, message):
    # the pull on view 0 reads iterate 1; the pull on view 2 under a path
    # 0-1, 1-2 also reads it, and the objective reads all of them
    views = three_views(sizes=(14, 12, 13), seed=29)
    reduced = reduce_views(views)
    hats = _bad_iterates(reduced, fault)
    w = build_weights(views, "uniform")
    call = {
        "g_objective": lambda: g_objective(hats, w, reduced),
        "compute_Ds": lambda: compute_Ds(0, hats, w, reduced),
    }[evaluator]
    with pytest.raises(ViewError, match=message) as exc:
        call()
    assert exc.value.view == 1


@pytest.mark.parametrize("scheme", ["gauss_seidel", "jacobi"])
def test_cycle_solves_read_the_iterates_of_their_order(monkeypatch, scheme):
    # Jacobi: every solve of a cycle reads the iterates that ended the
    # previous cycle; Gauss-Seidel: view s reads the fresh iterates of the
    # views before it and the previous cycle's of the others
    views = three_views(seed=41)
    reduced = reduce_views(views)
    pairs = [(0, 1), (0, 2), (1, 2)]
    rho = build_weights(views, "uniform").rho
    sigmas = [rv.sigma for rv in reduced]
    hatX = identity_hats(reduced, 2)
    solve_view = multiset._solve_view
    calls = []

    def recording_solve_view(s, read, *args):
        out = solve_view(s, read, *args)
        calls.append((s, list(read), out[0]))
        return out

    monkeypatch.setattr(multiset, "_solve_view", recording_solve_view)
    blocks = multiset._cross_blocks(reduced, pairs)
    ended = [list(hatX)]
    for _ in range(3):
        read, _, _ = multiset._cycle(hatX, rho, blocks, sigmas, scheme, ScfConfig())
        # the cycle returns the list its solves read
        if scheme == "gauss_seidel":
            assert read is hatX
        else:
            assert read is not hatX and all(a is b for a, b in zip(read, ended[-1]))
            multiset._realign(hatX, rho, blocks, sigmas)
        ended.append(list(hatX))
    assert [s for s, _, _ in calls] == [0, 1, 2] * 3
    moved = 0
    for c in range(3):
        fresh = [X for _, _, X in calls[3 * c: 3 * c + 3]]
        for s, read, _ in calls[3 * c: 3 * c + 3]:
            expect = list(ended[c])
            if scheme == "gauss_seidel":
                expect[:s] = fresh[:s]
            assert all(a is b for a, b in zip(read, expect))
        moved += sum(X is not old for X, old in zip(fresh, ended[c]))
    assert moved > 0  # fresh and old iterates differ, so the orders are told apart


def test_jacobi_extrapolation_converges_at_a_tight_tolerance():
    # the Anderson step mixes the realigned iterates as they stand: this
    # run takes 318 cycles at one BLAS thread and 300 at two, so the cap
    # of 400 fails a step that converges a third slower
    prob = build_multiview(correlated_views((40, 30, 35), 400, 1, shared=6, noise=0.6))
    cfg = OmccaConfig(eps_outer=1e-12, max_cycles=400, scheme="jacobi")
    rep = rcomcca(prob, 4, build_weights(prob, "uniform"), cfg=cfg)
    assert rep.termination_reason == "rel_change_tol"
    assert rep.extrapolated


@pytest.mark.parametrize("seed", range(5))
def test_realign_never_lowers_g(seed):
    # each rotation raises view s's terms of g, 2 tr(hatX_s^T D_s) over a
    # norm that rotations keep, to their nuclear norm; no subspace moves
    views = three_views(seed=seed)
    reduced = reduce_views(views)
    sigmas = [rv.sigma for rv in reduced]
    rng = np.random.default_rng(seed)
    for weighting in ("uniform", "tree"):
        w = build_weights(views, weighting)
        pairs = w.selected_pairs()
        blocks = multiset._cross_blocks(reduced, pairs)
        hatX = [random_stiefel(rv.r, 2, rng) for rv in reduced]
        start = list(hatX)
        g = [multiset._g(hatX, w.rho, pairs, blocks, sigmas)]
        for _ in range(2):
            multiset._realign(hatX, w.rho, blocks, sigmas)
            g.append(multiset._g(hatX, w.rho, pairs, blocks, sigmas))
        assert g[1] > g[0]
        assert g[2] >= g[1] - 1e-14 * abs(g[1])
        for a, b in zip(start, hatX):
            assert dist_tr(a, b) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_two_view_realign_is_pair_align_up_to_a_joint_rotation(seed):
    views = three_views(seed=seed)[:2]
    reduced = reduce_views(views)
    sigmas = [rv.sigma for rv in reduced]
    rho = np.array([[0.0, 1.0], [1.0, 0.0]])
    blocks = multiset._cross_blocks(reduced, [(0, 1)])
    K = blocks[0, 1]
    rng = np.random.default_rng(seed)
    hat = [random_stiefel(rv.r, 2, rng) for rv in reduced]
    paired = list(pair_align(hat[0], hat[1], K))
    multiset._realign(hat, rho, blocks, sigmas)
    # hatX^T K hatY symmetric PSD, its trace its nuclear norm
    W = hat[0].T @ K @ hat[1]
    assert np.max(np.abs(W - W.T)) <= 1e-12 * scale_of(K)
    assert np.linalg.eigvalsh(0.5 * (W + W.T))[0] >= -1e-12 * scale_of(K)
    assert np.trace(W) == pytest.approx(np.linalg.norm(W, "nuc"), rel=1e-12)
    # the same subspaces, one rotation Q for both views, the same g
    Q = paired[0].T @ hat[0]
    for a, b in zip(hat, paired):
        assert dist_tr(a, b) <= 1e-12
        assert np.max(np.abs(a - b @ Q)) <= 1e-12
    g, g_pair = (multiset._g(h, rho, [(0, 1)], blocks, sigmas) for h in (hat, paired))
    assert g == pytest.approx(g_pair, rel=1e-14)


@pytest.mark.parametrize(
    ("bad", "error"),
    [("rows", ViewError), ("k", ViewError), ("zero variance", DegenerateViewError)],
)
def test_projection_errors_name_their_projection(bad, error):
    # the CLI's eval names the --proj file from ``.view``
    views = three_views(seed=30)
    projections = [np.eye(8)[:, :2], np.eye(6)[:, :2], np.eye(7)[:, :2]]
    projections[1] = {
        "rows": np.eye(5)[:, :2], "k": np.eye(6)[:, :3], "zero variance": np.zeros((6, 2))
    }[bad]
    with pytest.raises(error) as exc:
        total_correlation(projections, views, build_weights(views, "uniform"))
    assert type(exc.value) is error
    assert exc.value.view == 1


def test_solver_path_computes_no_certificate(monkeypatch):
    # the inner ScfReport certificates are computed only when read, and
    # no solver reads them
    def no_dist_tr(G1, G2):
        raise AssertionError("dist_tr called on the solver path")

    monkeypatch.setattr(scf_module, "dist_tr", no_dist_tr)
    views = three_views(seed=28)
    w = build_weights(views, "uniform")
    inner = ScfConfig(eps_scf=1e-12, max_iter=20)
    for scheme in ("gauss_seidel", "jacobi"):
        cfg = OmccaConfig(eps_outer=1e-15, max_cycles=5, scheme=scheme, scf_cfg=inner)
        rep = rcomcca(views, 2, w, cfg=cfg)
        assert rep.cycles == 5
        assert rep.termination_reason == "max_cycles"
    prob = build_two_view(views[0], views[1])
    alt = occa_alternate(prob, 2, alt_cfg=AltConfig(eps_alt=1e-15, max_outer=5), scf_cfg=inner)
    assert alt.outer_iterations == 5
    assert alt.termination_reason == "max_outer"
    assert len(alt.inner_iterations) == alt.outer_iterations


@pytest.mark.parametrize(
    ("seed", "weighting", "cap"), [(0, "tree", 3), (1, "tree", 3), (0, "uniform", 6)]
)
def test_jacobi_cap_ends_on_a_plain_cycle(seed, weighting, cap):
    # the extrapolation step runs only between cycles: a run stopped by
    # the cap returns its last cycle's iterates, never a candidate after it
    views = three_views(seed=seed)
    w = build_weights(views, weighting)
    rep = rcomcca(views, 2, w, cfg=OmccaConfig(scheme="jacobi", max_cycles=cap))
    assert rep.termination_reason == "max_cycles" and rep.cycles == cap
    assert cap not in rep.extrapolated
    assert total_correlation(rep.projections, views, w) == pytest.approx(rep.g_trace[-1], rel=1e-12)


def test_jacobi_starts_no_thread(monkeypatch):
    # a view's step is too small for threads to repay their coordination,
    # so Jacobi cycles run on the calling thread whatever ``threads`` says
    def no_start(thread):
        raise AssertionError(f"rcomcca started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    views = three_views(seed=29)
    cfg = OmccaConfig(eps_outer=1e-15, max_cycles=4, scheme="jacobi")
    assert rcomcca(views, 2, build_weights(views, "uniform"), cfg=cfg, threads=4).cycles == 4


def test_total_correlation_identical_views():
    rng = np.random.default_rng(21)
    S = center(rng.standard_normal((5, 30)))
    X = orthonormalize(rng.standard_normal((5, 2)))
    rho = np.zeros((2, 2))
    rho[0, 1] = rho[1, 0] = 1.0
    w = WeightMatrix.custom(rho)
    assert total_correlation([X, X.copy()], [S, S.copy()], w) == pytest.approx(2.0, rel=1e-10)


class TestOneProblem:
    """The weights, the solver and the evaluator read one MultiViewProblem,
    which reduces each view once, and only when a reduction is read."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        calls = []
        reduce = multiset.reduce_views

        def counting_reduce(*args, **kwargs):
            calls.append(1)
            return reduce(*args, **kwargs)

        monkeypatch.setattr(multiset, "reduce_views", counting_reduce)
        return calls

    def test_weights_and_solver_share_one_reduction(self, reductions):
        prob = build_multiview(three_views(seed=30))
        rep = rcomcca(prob, 2, build_weights(prob, "tree"))
        assert len(reductions) == 1
        total_correlation(rep.projections, prob, build_weights(prob, "uniform"))
        assert len(reductions) == 1
        # the same solve from the list of views reduces them again
        views = [S.copy() for S in prob.views]
        again = rcomcca(views, 2, build_weights(views, "tree"))
        assert len(reductions) == 3
        assert again.g_trace == rep.g_trace

    def test_build_multiview_returns_a_problem_as_it_is(self):
        prob = build_two_view(*three_views(seed=31)[:2])
        assert build_multiview(prob) is prob

    def test_uniform_weights_reduce_nothing(self, reductions):
        w = build_weights(three_views(seed=31), "uniform")
        assert reductions == []
        assert len(w.selected_pairs()) == 3

    @pytest.mark.parametrize(
        ("bad", "error"),
        [
            ("zero", DegenerateViewError),
            ("1-d", ContractViolation),
            ("non-finite", ContractViolation),
            ("sample count", ViewError),
        ],
    )
    def test_uniform_weights_still_check_the_views(self, reductions, bad, error):
        views = three_views(seed=32)
        q = views[1].shape[1]
        views[1] = {
            "zero": np.zeros((6, q)),
            "1-d": np.ones(q),
            "non-finite": np.where(np.eye(6, q) > 0, np.nan, views[1]),
            "sample count": views[1][:, 1:],
        }[bad]
        with pytest.raises(error) as exc:
            build_weights(views, "uniform")
        assert type(exc.value) is error
        if bad in ("zero", "sample count"):
            assert exc.value.view == 1
        assert reductions == []


@pytest.mark.parametrize(
    ("call", "error"),
    [
        (lambda v, w: OmccaConfig(max_cycles=0), ContractViolation),
        (lambda v, w: OmccaConfig(scheme="x"), ContractViolation),
        (lambda v, w: total_correlation([np.eye(8)[:, :2]] * 2, v, w), ContractViolation),
        (lambda v, w: total_correlation(
            [np.eye(8)[:, :2], np.eye(6)[:, :2], np.eye(7)[:, :3]], v, w), ViewError),
        (lambda v, w: rcomcca(v, 0, w), ContractViolation),
        (lambda v, w: rcomcca(v, 2.0, w), ContractViolation),
        (lambda v, w: rcomcca(v, True, w), ContractViolation),
        (lambda v, w: rcomcca(v, 1, w, threads=2.5), ContractViolation),
        (lambda v, w: rcomcca(v, 1, w, threads=True), ContractViolation),
    ],
    ids=["max_cycles-0", "scheme", "projection-count", "projection-k", "k-0", "k-float",
         "k-bool", "threads-float", "threads-bool"],
)
def test_input_checks_raise_their_documented_class(call, error):
    views = three_views()
    with pytest.raises(error):
        call(views, build_weights(views, "uniform"))
