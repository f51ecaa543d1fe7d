import numpy as np
import pytest

import scipy.linalg as sla

from occakit import (
    AltConfig,
    ContractViolation,
    DegenerateViewError,
    RankDeficiencyError,
    ScfConfig,
    SyntheticSpec,
    build_two_view,
    center,
    classical_cca,
    dist_tr,
    gen_synthetic,
    objective_F,
    objective_f,
    occa_alternate,
    orthonormalize,
    post_orthogonalize,
    build_weights,
    rcomcca,
    reduce_views,
)

import oracles
from cases import rank_tail_views
from occakit.linalg import scale_of


def synthetic_problem(m=20, n=20, q=200, seed=0, lam=2e-4):
    sx, sy = gen_synthetic(SyntheticSpec(m=m, n=n, q=q, lam=lam, seed=seed))
    return center(sx), center(sy)


class TestBuildTwoView:
    def test_identical_views(self):
        rng = np.random.default_rng(0)
        S = center(rng.standard_normal((4, 30)))
        prob = build_two_view(S, S)
        assert np.allclose(prob.A, prob.B)
        assert np.allclose(prob.A, prob.C)

    def test_orthogonal_rows_zero_cross(self):
        S1 = center(np.array([[1.0, -1.0, 1.0, -1.0]]))
        S2 = center(np.array([[1.0, 1.0, -1.0, -1.0]]))
        prob = build_two_view(S1, S2)
        assert np.allclose(prob.C, 0.0)

    def test_products_match_direct_evaluation(self):
        rng = np.random.default_rng(1)
        S1 = center(rng.standard_normal((4, 30)))
        S2 = center(rng.standard_normal((3, 30)))
        prob = build_two_view(S1, S2)
        assert np.allclose(prob.A, S1 @ S1.T, atol=1e-12)
        assert np.allclose(prob.B, S2 @ S2.T, atol=1e-12)
        assert np.allclose(prob.C, S1 @ S2.T, atol=1e-12)
        assert prob.n == 4 and prob.m == 3 and prob.q == 30

    def test_sample_count_mismatch(self):
        with pytest.raises(ContractViolation):
            build_two_view(np.zeros((2, 5)), np.zeros((2, 6)))

    def test_zero_view_rejected_by_name(self):
        S = center(np.random.default_rng(2).standard_normal((3, 20)))
        with pytest.raises(DegenerateViewError, match="view 1 is identically zero"):
            build_two_view(S, np.zeros((2, 20)))

    def test_uncentered_rejected(self):
        rng = np.random.default_rng(2)
        S = rng.standard_normal((3, 20)) + 5.0
        with pytest.raises(ContractViolation):
            build_two_view(S, center(S))


class TestObjectives:
    def test_perfect_self_correlation(self):
        rng = np.random.default_rng(3)
        S = center(rng.standard_normal((5, 40)))
        prob = build_two_view(S, S)
        X = orthonormalize(rng.standard_normal((5, 1)))
        assert objective_f(X, X, prob) == pytest.approx(1.0, abs=1e-12)
        assert objective_F(X, X, prob) == pytest.approx(1.0, abs=1e-12)

    def test_zero_cross_covariance(self):
        S1 = center(np.array([[1.0, -1.0, 1.0, -1.0]]))
        S2 = center(np.array([[1.0, 1.0, -1.0, -1.0]]))
        prob = build_two_view(S1, S2)
        X = np.array([[1.0]])
        assert objective_F(X, X, prob) == 0.0

    def test_F_equals_f_squared(self):
        rng = np.random.default_rng(4)
        s1, s2 = synthetic_problem(m=6, n=5, q=60, seed=4)
        prob = build_two_view(s1, s2)
        X = orthonormalize(rng.standard_normal((6, 2)))
        Y = orthonormalize(rng.standard_normal((5, 2)))
        F = objective_F(X, Y, prob)
        f = objective_f(X, Y, prob)
        assert F == pytest.approx(f**2, rel=1e-14)

    def test_degenerate_view_raises(self):
        # second feature never varies: projecting onto it has zero variance
        S = center(np.array([[1.0, -1.0, 2.0, -2.0], [0.0, 0.0, 0.0, 0.0]]))
        prob = build_two_view(S, S)
        X = np.array([[0.0], [1.0]])
        with pytest.raises(DegenerateViewError):
            objective_F(X, X, prob)


class TestOccaAlternate:
    def test_self_correlation_k1(self):
        rng = np.random.default_rng(5)
        S = center(rng.standard_normal((6, 50)))
        prob = build_two_view(S, S)
        rep = occa_alternate(prob, k=1)
        assert rep.f_final == pytest.approx(1.0, abs=1e-8)

    def test_monotone_F_and_psd_certificates(self):
        s1, s2 = synthetic_problem(seed=6)
        prob = build_two_view(s1, s2)
        rep = occa_alternate(prob, k=3)
        tr = np.array(rep.F_trace)
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))
        c_scale = np.max(np.abs(prob.C))
        assert all(v >= -1e-9 * c_scale for v in rep.xcy_min_eigs)
        assert rep.f_final == pytest.approx(np.sqrt(rep.F_trace[-1]), rel=1e-10)

    @pytest.mark.parametrize(("m", "n", "q", "seed"), [(20, 20, 200, 6), (30, 25, 20, 3)])
    def test_returned_pair_in_the_canonical_basis(self, m, n, q, seed):
        # every cycle leaves X^T C Y symmetric PSD; the returned pair is
        # rotated once more, so that it is diagonal with nonnegative entries
        prob = build_two_view(*synthetic_problem(m=m, n=n, q=q, seed=seed))
        rep = occa_alternate(prob, k=3)
        W = rep.X.T @ prob.C @ rep.Y
        k_scale = scale_of(prob.blocks([(0, 1)])[0, 1])
        assert np.max(np.abs(W - np.diag(np.diag(W)))) <= 1e-12 * k_scale
        assert np.min(np.diag(W)) >= 0.0
        assert max(rep.xcy_asyms) <= 1e-12

    def test_matches_multistart_gradient_ascent(self):
        s1, s2 = synthetic_problem(m=20, n=20, q=200, seed=7)
        prob = build_two_view(s1, s2)
        rep = occa_alternate(
            prob,
            k=3,
            alt_cfg=AltConfig(eps_alt=1e-10, max_outer=100),
            scf_cfg=ScfConfig(eps_scf=1e-7, max_iter=100),
        )
        best_F, _, _ = oracles.pga_best_F(
            prob.A, prob.B, prob.C, k=3, n_starts=1000, iters=300, seed=7
        )
        assert rep.f_final >= np.sqrt(best_F) * (1 - 1e-4)

    def test_warm_start_reuses_previous_iterate(self):
        s1, s2 = synthetic_problem(seed=8)
        prob = build_two_view(s1, s2)
        rep = occa_alternate(prob, k=2)
        # after the first outer step the inner solves start hot and finish fast
        later = rep.inner_iterations[1:]
        assert later and all(ix <= 10 and iy <= 10 for ix, iy in later)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_tolerance_must_be_positive_and_finite(self, eps):
        with pytest.raises(ContractViolation, match="eps_alt"):
            AltConfig(eps_alt=eps)

    def test_bad_k(self):
        s1, s2 = synthetic_problem(m=5, n=4, q=30, seed=9)
        prob = build_two_view(s1, s2)
        with pytest.raises(ContractViolation):
            occa_alternate(prob, k=4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fewer_samples_than_features(self, seed):
        # q < n: A and B are singular, so the solution must stay inside
        # the range of each view
        s1, s2 = synthetic_problem(m=30, n=25, q=12, seed=seed)
        prob = build_two_view(s1, s2)
        rep = occa_alternate(prob, k=3)
        for P, rv in zip((rep.X, rep.Y), reduce_views([s1, s2])):
            assert np.max(np.abs(P.T @ P - np.eye(3))) <= 1e-10
            assert np.max(np.abs(P - rv.U @ (rv.U.T @ P))) <= 1e-10
        tr = np.array(rep.F_trace)
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))
        c_scale = np.max(np.abs(prob.C))
        assert all(v >= -1e-9 * c_scale for v in rep.xcy_min_eigs)
        assert all(a <= 1e-10 for a in rep.xcy_asyms)

    @pytest.mark.parametrize(("m", "n", "seed"), [(20, 20, 0), (20, 20, 2), (30, 25, 0)])
    def test_stops_only_on_gradient_or_cap(self, m, n, seed):
        # F changes by less than 1e-12 relative on these inputs while the
        # gradient norm is still near 1e-6, so a small change of F is no
        # sign of convergence
        s1, s2 = synthetic_problem(m=m, n=n, q=200, seed=seed)
        cfg = AltConfig(eps_alt=1e-12, max_outer=100)
        rep = occa_alternate(build_two_view(s1, s2), k=3, alt_cfg=cfg)
        assert rep.termination_reason in ("grad_tol", "max_outer")
        if rep.termination_reason == "grad_tol":
            assert rep.grad_norm_final <= cfg.eps_alt

    @pytest.mark.parametrize("seed", [7, 0, 2])
    def test_pair_realignment_lets_the_gradient_test_stop(self, seed):
        # the joint realignment leaves F unchanged, yet without it the
        # gradient norm stalls near 2e-8 and each solve runs to max_outer
        # with the same F; with it the gradient norm stalls near eps_alt, so
        # the step the test stops at moves with rounding; seed 7 is the
        # README quickstart's data
        sx, sy = gen_synthetic(SyntheticSpec(m=20, n=15, q=500, seed=seed))
        prob = build_two_view(center(sx), center(sy))
        rep = occa_alternate(prob, k=3, alt_cfg=AltConfig(max_outer=300))
        assert rep.termination_reason == "grad_tol"
        assert rep.grad_norm_final <= 1e-8

    def test_k_above_rank_names_view(self):
        s1, s2 = synthetic_problem(m=12, n=10, q=6, seed=3)
        prob = build_two_view(s1, s2)
        with pytest.raises(RankDeficiencyError) as exc:
            occa_alternate(prob, k=8)
        assert exc.value.view == 0

    def test_k_equal_to_rank_names_view(self):
        # both views have rank 5: the SCF subproblem needs k below it
        s1, s2 = synthetic_problem(m=12, n=10, q=6, seed=3)
        prob = build_two_view(s1, s2)
        with pytest.raises(RankDeficiencyError, match="view 0") as exc:
            occa_alternate(prob, k=5)
        assert exc.value.view == 0
        # the classical baseline shares the rank rule and accepts k = rank
        _, _, corr = classical_cca(prob, k=5)
        assert np.allclose(corr, 1.0)


class TestClassicalCca:
    def test_identical_views_full_correlations(self):
        rng = np.random.default_rng(10)
        S = center(rng.standard_normal((5, 50)))
        prob = build_two_view(S, S)
        X1, X2, corr = classical_cca(prob, k=3)
        assert np.allclose(corr, 1.0, atol=1e-8)
        assert np.allclose(X1.T @ prob.A @ X1, np.eye(3), atol=1e-8)
        assert np.allclose(X2.T @ prob.B @ X2, np.eye(3), atol=1e-8)

    def test_zero_cross_covariance(self):
        S1 = center(np.array([[1.0, -1.0, 1.0, -1.0]]))
        S2 = center(np.array([[1.0, 1.0, -1.0, -1.0]]))
        prob = build_two_view(S1, S2)
        _, _, corr = classical_cca(prob, k=1)
        assert np.allclose(corr, 0.0, atol=1e-12)

    def test_matches_generalized_eigenvalue_oracle(self):
        rng = np.random.default_rng(11)
        S1 = center(rng.standard_normal((5, 50)))
        S2 = center(rng.standard_normal((4, 50)))
        prob = build_two_view(S1, S2)
        _, _, corr = classical_cca(prob, k=4)
        expected = oracles.gev_cca_correlations(S1, S2, 4)
        assert np.allclose(corr, expected, atol=1e-8)
        assert np.all(np.diff(corr) <= 1e-12)
        assert np.all(corr >= 0) and np.all(corr <= 1 + 1e-10)

    def test_rank_deficiency_names_view(self):
        rng = np.random.default_rng(12)
        S1 = center(rng.standard_normal((2, 30)))
        S1 = np.vstack([S1, S1[0]])  # third row duplicates the first
        S2 = center(rng.standard_normal((3, 30)))
        prob = build_two_view(center(S1), S2)
        with pytest.raises(RankDeficiencyError) as exc:
            classical_cca(prob, k=3)
        assert exc.value.view == 0


    def test_k_below_one_rejected(self):
        s1, s2 = synthetic_problem(m=6, n=5, q=40, seed=16)
        with pytest.raises(ContractViolation, match="k must be >= 1"):
            classical_cca(build_two_view(s1, s2), k=0)

    @pytest.mark.parametrize(
        "m, n, q, seed",
        [(20, 20, 200, s) for s in range(3)]
        + [(12, 10, 120, s) for s in range(3)]
        + [(6, 5, 60, s) for s in range(3)]
        + [(200, 200, 2000, 0)],
    )
    def test_matches_covariance_oracle(self, m, n, q, seed):
        # the old covariance-whitening formula, on the leading k <= 10
        # correlations that squaring the condition number leaves accurate
        s1, s2 = synthetic_problem(m=m, n=n, q=q, seed=seed)
        prob = build_two_view(s1, s2)
        k = min(m, n, 10)
        X1, X2, corr = classical_cca(prob, k=k)
        _, _, expected = oracles.covariance_cca(s1, s2, k)
        assert np.max(np.abs(corr - expected)) <= 1e-12
        assert np.max(np.abs(X1.T @ prob.A @ X1 - np.eye(k))) <= 1e-10
        assert np.max(np.abs(X2.T @ prob.B @ X2 - np.eye(k))) <= 1e-10

    @pytest.mark.parametrize("m, n, q", [(20, 20, 200), (200, 200, 2000)])
    def test_every_correlation_is_a_principal_angle_cosine(self, m, n, q):
        # the trailing correlations of the covariance route are off by up
        # to ~2e-7 here; the principal angles of scipy agree with all of
        # classical_cca's
        s1, s2 = synthetic_problem(m=m, n=n, q=q, seed=0)
        _, _, corr = classical_cca(build_two_view(s1, s2), k=min(m, n))
        expected = np.sort(np.cos(sla.subspace_angles(s1.T, s2.T)))[::-1]
        assert np.max(np.abs(corr - expected)) <= 1e-11


class TestOneRankRule:
    """Both two-view solvers and rcomcca take their rank from
    reduce_views: on views whose singular-value tails sit between the
    thin-SVD rule and a covariance-eigenvalue rule, all three agree."""

    @pytest.mark.parametrize("seed", range(4))
    def test_occa_solves_what_rcomcca_solves(self, seed):
        views = rank_tail_views(seed)
        reduced = reduce_views(views)
        assert [rv.r for rv in reduced] == [5, 4]
        prob = build_two_view(*views)
        rep = occa_alternate(prob, k=3)
        for P, rv in zip((rep.X, rep.Y), reduced):
            assert np.max(np.abs(P.T @ P - np.eye(3))) <= 1e-10
            assert np.max(np.abs(P - rv.U @ (rv.U.T @ P))) <= 1e-10
        tr = np.array(rep.F_trace)
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))
        g = rcomcca(views, 3, build_weights(views)).g_trace[-1]
        assert rep.f_final == pytest.approx(g / 2, rel=1e-5)

    def test_classical_cca_reports_same_ranks(self):
        prob = build_two_view(*rank_tail_views(0))
        _, _, corr = classical_cca(prob, k=4)
        assert corr.shape == (4,)
        with pytest.raises(RankDeficiencyError, match="rank 4 of view 1") as exc:
            classical_cca(prob, k=5)
        assert exc.value.view == 1
        with pytest.raises(RankDeficiencyError, match="rank 5 of view 0") as exc:
            classical_cca(prob, k=6)
        assert exc.value.view == 0

    def test_rank_tol_thresholds_singular_values(self):
        # a threshold of 1e-8 sigma_1 drops the 1e-9 and 1e-10 tails
        prob = build_two_view(*rank_tail_views(0))
        with pytest.raises(RankDeficiencyError, match="rank 3 of view 0"):
            classical_cca(prob, k=4, rank_tol=1e-8)
        assert classical_cca(prob, k=3, rank_tol=1e-8)[2].shape == (3,)

    def test_every_solver_counts_views_from_zero(self):
        rng = np.random.default_rng(5)
        views = [
            center(rng.standard_normal((4, 30))),
            center(np.outer(rng.standard_normal(3), rng.standard_normal(30))),  # rank 1
        ]
        prob = build_two_view(*views)
        for solve in (
            lambda: occa_alternate(prob, k=2),
            lambda: classical_cca(prob, k=2),
            lambda: rcomcca(views, 2, build_weights(views)),
        ):
            with pytest.raises(RankDeficiencyError, match="rank 1 of view 1") as exc:
                solve()
            assert exc.value.view == 1

    @pytest.mark.parametrize("rank_tol", [float("nan"), -1.0, 1.0, 2.0, float("inf")])
    def test_rank_tol_outside_unit_interval_rejected(self, rank_tol):
        views = rank_tail_views(0)
        with pytest.raises(ContractViolation, match="rank_tol"):
            reduce_views(views, rank_tol=rank_tol)
        with pytest.raises(ContractViolation, match="rank_tol"):
            classical_cca(build_two_view(*views), k=2, rank_tol=rank_tol)

    def test_reduction_shared_by_both_solvers(self):
        prob = build_two_view(*rank_tail_views(1))
        occa_alternate(prob, k=2)
        first = prob.reduced()
        classical_cca(prob, k=2)
        assert prob.reduced() is first


class TestPostOrthogonalize:
    def test_orthonormal_input_unchanged(self):
        rng = np.random.default_rng(13)
        X = orthonormalize(rng.standard_normal((6, 3)))
        assert np.allclose(post_orthogonalize(X), X, atol=1e-12)

    def test_duplicate_columns_rejected(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((5, 1))
        with pytest.raises(RankDeficiencyError):
            post_orthogonalize(np.hstack([x, x]))

    def test_zero_matrix_rejected(self):
        with pytest.raises(RankDeficiencyError, match="numerically dependent"):
            post_orthogonalize(np.zeros((5, 2)))

    def test_spans_same_column_space(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((7, 3))
        Q = post_orthogonalize(X)
        ref = orthonormalize(X)
        assert dist_tr(Q, ref) <= 1e-10


def test_scf_beats_post_orthogonalized_baseline_most_of_the_time():
    wins = 0
    total = 20
    for seed in range(total):
        s1, s2 = synthetic_problem(m=12, n=10, q=120, seed=200 + seed)
        prob = build_two_view(s1, s2)
        rep = occa_alternate(prob, k=2)
        X1, X2, _ = classical_cca(prob, k=2)
        f_base = objective_f(post_orthogonalize(X1), post_orthogonalize(X2), prob)
        if rep.f_final >= f_base - 1e-12:
            wins += 1
    assert wins >= 0.9 * total


@pytest.mark.parametrize(
    "call",
    [
        lambda prob: AltConfig(max_outer=0),
        lambda prob: occa_alternate(prob, 0),
        lambda prob: occa_alternate(prob, 2.0),
        lambda prob: occa_alternate(prob, True),
        lambda prob: classical_cca(prob, 2.0),
        lambda prob: classical_cca(prob, True),
        lambda prob: occa_alternate(prob, 2, X0=np.eye(prob.n)[:, :3]),
        lambda prob: post_orthogonalize(np.eye(3)[:2]),
    ],
    ids=["max_outer-0", "k-0", "k-float", "k-bool", "classical-k-float", "classical-k-bool",
         "X0-shape", "post_orthogonalize-wide"],
)
def test_input_checks_raise_contract_violation(call):
    prob = build_two_view(*synthetic_problem(m=6, n=5, q=40))
    with pytest.raises(ContractViolation):
        call(prob)
