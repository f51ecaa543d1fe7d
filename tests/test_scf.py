import numpy as np
import pytest

from occakit import (
    ContractViolation,
    ScfConfig,
    SubproblemSpec,
    UndefinedRatioError,
    build_E,
    dist_tr,
    eta,
    grad_eta,
    kkt_residual,
    orthonormalize,
    sample_tangent,
    scf_solve,
    second_order_check,
)

import oracles
from cases import ETA_HIGH, ETA_LOW, MAXIMIZER_HIGH, MAXIMIZER_LOW, REF_A, REF_D, rounded_start


def ref_spec():
    return SubproblemSpec(REF_A, REF_D)


def random_spec(rng, n, k, ridge=0.1):
    M = rng.standard_normal((n, n))
    A = M @ M.T + ridge * np.eye(n)
    D = rng.standard_normal((n, k))
    return SubproblemSpec(A, D)


def random_stiefel(n, k, rng):
    return orthonormalize(rng.standard_normal((n, k)))


class TestSubproblemSpec:
    def test_rejects_nonsymmetric_A(self):
        with pytest.raises(ContractViolation):
            SubproblemSpec(np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones((2, 1)))

    def test_rejects_indefinite_A(self):
        with pytest.raises(ContractViolation):
            SubproblemSpec(np.diag([1.0, -1.0]), np.ones((2, 1)))

    def test_rejects_zero_D(self):
        with pytest.raises(ContractViolation):
            SubproblemSpec(np.eye(2), np.zeros((2, 1)))


class TestEta:
    def test_reference_values(self):
        spec = ref_spec()
        assert eta(MAXIMIZER_HIGH, spec) == pytest.approx(ETA_HIGH, abs=1e-2)
        assert eta(MAXIMIZER_LOW, spec) == pytest.approx(ETA_LOW, abs=1e-2)

    def test_identity_A_with_D_equal_G(self):
        rng = np.random.default_rng(0)
        G = random_stiefel(6, 3, rng)
        spec = SubproblemSpec(np.eye(6), G.copy())
        assert eta(G, spec) == pytest.approx(3.0, rel=1e-12)

    def test_orthogonal_numerator(self):
        spec = SubproblemSpec(np.eye(2), np.array([[1.0], [0.0]]))
        g = np.array([[0.0], [1.0]])
        assert eta(g, spec) == 0.0

    def test_sign_invariance_in_D(self):
        rng = np.random.default_rng(1)
        spec = random_spec(rng, 5, 2)
        flipped = SubproblemSpec(spec.A, -spec.D)
        G = random_stiefel(5, 2, rng)
        assert eta(G, spec) == pytest.approx(eta(G, flipped), rel=1e-14)


class TestGradEta:
    def test_zero_at_closed_form_k1_maximizer(self):
        rng = np.random.default_rng(2)
        spec = random_spec(rng, 6, 1)
        g = np.linalg.solve(spec.A, spec.D)
        g /= np.linalg.norm(g)
        assert np.max(np.abs(grad_eta(g, spec))) <= 1e-8

    def test_zero_when_AG_equals_D(self):
        rng = np.random.default_rng(3)
        G = random_stiefel(6, 3, rng)
        spec = SubproblemSpec(np.eye(6), G.copy())
        assert np.max(np.abs(grad_eta(G, spec))) <= 1e-14

    def test_tangency(self):
        rng = np.random.default_rng(4)
        spec = random_spec(rng, 7, 2)
        G = random_stiefel(7, 2, rng)
        g = grad_eta(G, spec)
        scale = max(1.0, np.max(np.abs(g)))
        assert np.max(np.abs(G.T @ g + g.T @ G)) <= 1e-8 * scale

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 6, 2
        spec = random_spec(rng, n, k)
        G = random_stiefel(n, k, rng)
        H = sample_tangent(G, rng)
        inner = float(np.sum(grad_eta(G, spec) * H))
        fd = oracles.fd_directional_eta(spec.A, spec.D, G, H)
        assert inner == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_undefined_ratio(self):
        spec = SubproblemSpec(np.eye(2), np.array([[1.0], [0.0]]))
        with pytest.raises(UndefinedRatioError):
            grad_eta(np.array([[0.0], [1.0]]), spec)


class TestBuildE:
    def test_hand_computed_identity_A(self):
        spec = SubproblemSpec(np.eye(2), np.array([[1.0], [0.0]]))
        g = np.array([[1.0], [0.0]])
        E = build_E(g, spec)
        assert np.allclose(E, np.diag([-1.0, 1.0]))

    def test_hand_computed_diagonal_A(self):
        spec = SubproblemSpec(np.diag([2.0, 1.0]), np.array([[0.0], [2.0]]))
        g = np.array([[0.0], [1.0]])
        E = build_E(g, spec)
        assert np.allclose(E, np.diag([2.0, -1.0]))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        spec = random_spec(rng, 8, 3)
        G = random_stiefel(8, 3, rng)
        E = build_E(G, spec)
        assert np.array_equal(E, E.T)

    @pytest.mark.parametrize(
        "point", [MAXIMIZER_HIGH, MAXIMIZER_LOW], ids=["high", "low"]
    )
    def test_maximizers_span_k_smallest_eigenspace(self, point):
        from occakit import k_smallest_eigenbasis

        spec = ref_spec()
        E = build_E(point, spec)
        res = k_smallest_eigenbasis(E, 2)
        assert dist_tr(res.basis, point) <= 1e-5


class TestKktResidual:
    def test_small_at_closed_form_maximizer(self):
        rng = np.random.default_rng(6)
        spec = random_spec(rng, 6, 1)
        g = np.linalg.solve(spec.A, spec.D)
        g /= np.linalg.norm(g)
        assert kkt_residual(g, spec) <= 1e-10

    @pytest.mark.parametrize(
        "point", [MAXIMIZER_HIGH, MAXIMIZER_LOW], ids=["high", "low"]
    )
    def test_small_at_reference_maximizers(self, point):
        # the tabulated digits limit the achievable residual
        assert kkt_residual(point, ref_spec()) <= 1e-5

    def test_cross_checks_against_gradient(self):
        rng = np.random.default_rng(7)
        spec = random_spec(rng, 6, 2)
        G = random_stiefel(6, 2, rng)
        phi_d = float(np.trace(G.T @ spec.D))
        phi_a = float(np.einsum("ij,ij->", G, spec.A @ G))
        xi = phi_a / phi_d
        # stationarity block of the residual equals (xi^2/2) |grad| entrywise
        stat = np.max(np.abs((xi**2 / 2) * grad_eta(G, spec)))
        W = G.T @ spec.D
        sym = np.max(np.abs(W - W.T))
        assert kkt_residual(G, spec) == pytest.approx(max(stat, sym), rel=1e-10)


class TestScfSolve:
    def test_converges_from_high_start(self):
        rep = scf_solve(
            ref_spec(),
            G0=rounded_start(MAXIMIZER_HIGH),
            cfg=ScfConfig(eps_scf=1e-7, max_iter=100),
        )
        assert rep.eta_trace[-1] == pytest.approx(ETA_HIGH, abs=1e-2)
        assert kkt_residual(rep.solution, ref_spec()) <= 1e-5

    def test_low_maximizer_escapes_upward(self):
        # The low maximizer satisfies first- and second-order conditions,
        # but its cross product G^T D is indefinite, so the alignment
        # step lifts the objective out of it immediately: the iteration
        # lands on the global value instead of staying at ~2.303.  This
        # pins the actual (monotone) behavior down.
        spec = ref_spec()
        low = rounded_start(MAXIMIZER_LOW)
        assert eta(low, spec) == pytest.approx(ETA_LOW, abs=1e-2)
        rep = scf_solve(spec, G0=low)
        assert rep.eta_trace[-1] == pytest.approx(ETA_HIGH, abs=1e-2)
        diffs = np.diff(rep.eta_trace)
        assert np.all(diffs >= -1e-12 * np.abs(np.array(rep.eta_trace[1:])))

    def test_closed_form_k1(self):
        spec = SubproblemSpec(np.diag([1.0, 2.0]), np.array([[1.0], [1.0]]))
        rep = scf_solve(spec, cfg=ScfConfig(eps_scf=1e-8, max_iter=100))
        assert rep.eta_trace[-1] == pytest.approx(1.5, rel=1e-8)
        g_star = np.array([[2.0], [1.0]]) / np.sqrt(5.0)
        assert dist_tr(rep.solution, g_star) <= 1e-6

    def test_closed_form_k1_grid_oracle(self):
        # independent check of the expected optimum by brute force over
        # the unit circle
        spec = SubproblemSpec(np.diag([1.0, 2.0]), np.array([[1.0], [1.0]]))
        theta = np.linspace(0, np.pi, 100_000, endpoint=False)
        g = np.stack([np.cos(theta), np.sin(theta)])
        vals = (g[0] + g[1]) ** 2 / (g[0] ** 2 + 2 * g[1] ** 2)
        assert vals.max() == pytest.approx(1.5, abs=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_eta_trace(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([5, 20]))
        k = int(rng.choice([1, 2]))
        rep = scf_solve(random_spec(rng, n, k), G0=random_stiefel(n, k, rng))
        tr = np.array(rep.eta_trace)
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))

    @pytest.mark.parametrize("seed", range(8))
    def test_psd_certificate_every_iteration(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, k = 8, 2
        spec = random_spec(rng, n, k)
        rep = scf_solve(spec, G0=random_stiefel(n, k, rng))
        bound = -1e-10 * np.max(np.abs(spec.D))
        assert all(v >= bound for v in rep.dtg_min_eigs)

    def test_fixed_point_terminates_fast_by_gradient(self):
        rng = np.random.default_rng(25)
        spec = random_spec(rng, 10, 2)
        cfg = ScfConfig(eps_scf=1e-5, max_iter=200)
        first = scf_solve(spec, cfg=cfg)
        # the property presumes a gradient-converged solution to refeed
        assert first.termination_reason == "grad_tol"
        again = scf_solve(spec, G0=first.solution, cfg=cfg)
        assert again.iterations <= 2
        assert again.termination_reason == "grad_tol"

    def test_zero_ratio_start_recovers(self):
        # start orthogonal to D: alignment cannot fix G^T D = 0, the
        # deterministic perturbation fallback must
        spec = SubproblemSpec(np.diag([1.0, 2.0]), np.array([[1.0], [0.0]]))
        g0 = np.array([[0.0], [1.0]])
        rep = scf_solve(spec, G0=g0, cfg=ScfConfig(eps_scf=1e-8, max_iter=100))
        assert rep.zero_ratio_events >= 1
        assert rep.eta_trace[-1] == pytest.approx(1.0, rel=1e-8)

    def test_solution_is_eigenbasis_of_its_own_operator(self):
        from occakit import k_smallest_eigenbasis

        rng = np.random.default_rng(9)
        cfg = ScfConfig(eps_scf=1e-8, max_iter=300)
        for _ in range(5):
            n, k = 9, 2
            spec = random_spec(rng, n, k)
            rep = scf_solve(spec, G0=random_stiefel(n, k, rng), cfg=cfg)
            if rep.gaps[-1] <= 1e-8:
                continue
            G = rep.solution
            E = build_E(G, spec)
            resid = np.max(np.abs(E @ G - G @ (G.T @ E @ G)))
            assert resid <= 1e-6 * max(1.0, np.max(np.abs(E)))

    def test_subspace_convergence(self):
        rng = np.random.default_rng(10)
        spec = random_spec(rng, 12, 3)
        rep = scf_solve(
            spec, G0=random_stiefel(12, 3, rng), cfg=ScfConfig(eps_scf=1e-8, max_iter=300)
        )
        assert rep.termination_reason != "max_iter"
        assert rep.subspace_dists[-1] <= 1e-6
        # the distances tail off toward zero
        assert rep.subspace_dists[-1] <= rep.subspace_dists[0] + 1e-12

    def test_default_start_is_identity_columns(self):
        spec = SubproblemSpec(np.diag([1.0, 2.0, 3.0]), np.eye(3)[:, :1])
        rep = scf_solve(spec)
        # with D = e1 and diagonal A the identity start is already optimal
        assert rep.eta_trace[0] == pytest.approx(1.0)

    def test_large_n_monotone_and_terminates(self):
        rng = np.random.default_rng(11)
        n, k = 520, 2
        M = rng.standard_normal((n, 2 * n))
        A = (M @ M.T) / (2 * n) + 0.5 * np.eye(n)
        spec = SubproblemSpec(A, rng.standard_normal((n, k)))
        rep = scf_solve(spec)
        tr = np.array(rep.eta_trace)
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))
        assert rep.termination_reason in ("grad_tol", "rel_change_tol")


class TestSecondOrderCheck:
    @pytest.mark.parametrize(
        "point", [MAXIMIZER_HIGH, MAXIMIZER_LOW], ids=["high", "low"]
    )
    def test_reference_maximizers_pass(self, point):
        rep = second_order_check(point, ref_spec(), samples=2000, rng=0)
        assert rep.passed
        assert rep.worst_margin >= -1e-8

    def test_zero_objective_saddle_fails(self):
        spec = SubproblemSpec(np.diag([1.0, 2.0]), np.array([[0.0], [1.0]]))
        g = np.array([[1.0], [0.0]])
        rep = second_order_check(g, spec, samples=500, rng=1)
        assert not rep.passed

    def test_closed_form_maximizer_passes(self):
        rng = np.random.default_rng(12)
        spec = random_spec(rng, 6, 1)
        g = np.linalg.solve(spec.A, spec.D)
        g /= np.linalg.norm(g)
        rep = second_order_check(g, spec, samples=1000, rng=2)
        assert rep.passed
        assert rep.worst_margin >= -1e-10

    def test_rejects_non_stationary_point(self):
        rng = np.random.default_rng(13)
        spec = random_spec(rng, 6, 2)
        G = random_stiefel(6, 2, rng)
        with pytest.raises(ContractViolation):
            second_order_check(G, spec, samples=10, rng=3)

    @pytest.mark.parametrize(
        "point", [MAXIMIZER_HIGH, MAXIMIZER_LOW], ids=["high", "low"]
    )
    def test_split_second_order_inequalities(self, point):
        # the tangent-space condition splits into an in-span (skew) part
        # and a free part; both must hold at a maximizer, which pins the
        # internal M, xi and E against each other
        spec = ref_spec()
        G = point
        phi_d = np.trace(G.T @ spec.D)
        phi_a = np.trace(G.T @ spec.A @ G)
        xi = phi_a / phi_d
        e = eta(G, spec)
        M = G.T @ spec.A @ G - xi * (G.T @ spec.D)
        M = 0.5 * (M + M.T)
        E = build_E(G, spec)
        rng = np.random.default_rng(31)
        for _ in range(2000):
            Z = rng.standard_normal((2, 2))
            K = 0.5 * (Z - Z.T)
            assert np.trace(K.T @ (G.T @ spec.A @ G - M) @ K) >= -1e-10
            J = rng.standard_normal((5, 2))
            J /= np.linalg.norm(J)
            lhs = (np.trace(spec.D.T @ J) - np.trace(G.T @ spec.D @ J.T @ G)) ** 2 / e
            rhs = (
                np.trace(J.T @ E @ J)
                - np.trace(J.T @ G @ M @ G.T @ J)
                + xi * np.trace(J.T @ G @ spec.D.T @ G @ G.T @ J)
                + np.trace(G.T @ J @ M @ J.T @ G)
                - np.trace(J @ M @ J.T)
            )
            assert rhs - lhs >= -1e-8
