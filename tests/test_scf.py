import numpy as np
import pytest

from occakit import (
    AltConfig,
    ContractViolation,
    OmccaConfig,
    ScfConfig,
    SolverFailure,
    SubproblemSpec,
    UndefinedRatioError,
    build_E,
    dist_tr,
    eta,
    grad_eta,
    kkt_residual,
    reduce_views,
    sample_tangent,
    scf_solve,
    second_order_check,
)

import occakit.linalg as linalg_module
import occakit.scf as scf_module
import oracles
from cases import (
    ETA_HIGH,
    ETA_LOW,
    MAXIMIZER_HIGH,
    MAXIMIZER_LOW,
    correlated_views,
    random_spec,
    random_stiefel,
    ref_spec,
    rounded_start,
)
from occakit.linalg import scale_of
from occakit.multiset import _cross_blocks
from oracles import view_spec


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf"), True, np.True_])
def test_config_tolerance_must_be_positive_and_finite(eps):
    with pytest.raises(ContractViolation, match="eps_scf"):
        ScfConfig(eps_scf=eps)


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
        scale = scale_of(g)
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
        # start orthogonal to D (k = 1 and k = 2): alignment cannot fix
        # G^T D = 0, the deterministic step along D must, once
        for A, D, g0, best in [
            (np.diag([1.0, 2.0]), np.eye(2)[:, :1], np.eye(2)[:, 1:], 1.0),
            (np.diag([1.0, 2.0, 3.0, 4.0]), np.eye(4)[:, :2], np.eye(4)[:, 2:], 4.0 / 3.0),
        ]:
            cfg = ScfConfig(eps_scf=1e-8, max_iter=100)
            rep = scf_solve(SubproblemSpec(A, D), G0=g0, cfg=cfg)
            assert rep.zero_ratio_events == 1
            assert np.trace(rep.iterates[0].T @ D) > 0.0
            assert rep.eta_trace[-1] == pytest.approx(best, rel=1e-8)
            assert rep.iterations == len(rep.grad_norms) == len(rep.eta_trace) - 1

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
            assert resid <= 1e-6 * scale_of(E)

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

    @pytest.mark.parametrize(
        "kind, n, k", [("spd", 9, 2), ("diagonal", 60, 5), ("small_tight", 9, 2)]
    )
    def test_matches_replay_from_public_steps(self, kind, n, k):
        # scf_solve reuses one iterate's products across E, the stopping
        # test and the certificates, and calls the unchecked kernels of
        # k_smallest_eigenbasis and align; replaying a sweep from the
        # public functions must give the same numbers bit for bit
        from occakit import align, k_smallest_eigenbasis

        rng = np.random.default_rng(31 if kind == "spd" else 32)
        D = rng.standard_normal((n, k))
        cfg = ScfConfig(eps_scf=1e-13, max_iter=60)
        if kind == "spd":
            M = rng.standard_normal((n, n))
            A = M @ M.T + 0.1 * np.eye(n)
            spec = SubproblemSpec(0.5 * (A + A.T), D)
        elif kind == "diagonal":
            spec = SubproblemSpec(np.diag(rng.uniform(0.1, 4.0, n)), D, validate=False)
        else:
            # the first full-space subproblem of the small_tight benchmark
            # workload: view 0 of a criterion-8 instance (rank 9) pulled by
            # view 1, both at the identity start, as _solve_view states it
            reduced = reduce_views(correlated_views((9, 7), q=50, seed=6000))
            hat = [np.eye(rv.r)[:, :k] for rv in reduced]
            rho = np.array([[0.0, 1.0], [1.0, 0.0]])
            blocks = _cross_blocks(reduced, [(0, 1)])
            spec = view_spec(0, hat, rho, blocks, [rv.sigma for rv in reduced])
            assert spec.n == n
            cfg = ScfConfig(eps_scf=1e-12, max_iter=50)  # the workload's inner settings
        rep = scf_solve(spec, cfg=cfg)
        assert rep.iterations >= 5

        norm_1 = float(np.sum(np.abs(spec.A))) + float(np.sum(np.abs(spec.D)))
        G = np.eye(n)[:, :k]
        eta_trace, grad_norms, gaps, dtg_min_eigs, dists = [eta(G, spec)], [], [], [], []
        for _ in range(rep.iterations):
            eig = k_smallest_eigenbasis(build_E(G, spec), k)
            G_new = align(eig.basis, spec.D)
            eta_trace.append(eta(G_new, spec))
            xi = float(np.einsum("ij,ij->", G_new, spec.A @ G_new)) / float(
                np.trace(G_new.T @ spec.D)
            )
            grad_norms.append(
                float(np.sum(np.abs(grad_eta(G_new, spec)))) / (xi**2 * norm_1)
            )
            gaps.append(eig.gap)
            W = G_new.T @ spec.D
            dtg_min_eigs.append(float(np.linalg.eigvalsh(0.5 * (W + W.T))[0]))
            dists.append(dist_tr(G, G_new))
            G = G_new
        assert np.array_equal(rep.solution, G)
        assert rep.eta_trace == eta_trace
        assert rep.grad_norms == grad_norms
        assert rep.gaps == gaps
        assert rep.dtg_min_eigs == dtg_min_eigs
        assert rep.subspace_dists == dists

    def test_certificates_computed_on_first_read(self, monkeypatch):
        # the solve itself computes no certificate; the first read of
        # subspace_dists computes one distance per sweep, a second read
        # returns the cached list
        calls = []

        def counting_dist_tr(G1, G2):
            calls.append(1)
            return dist_tr(G1, G2)

        monkeypatch.setattr(scf_module, "dist_tr", counting_dist_tr)
        spec = random_spec(np.random.default_rng(33), 9, 2)
        rep = scf_solve(spec, cfg=ScfConfig(eps_scf=1e-12, max_iter=20))
        assert rep.iterations >= 2
        assert calls == []
        dists = rep.subspace_dists
        assert len(dists) == len(calls) == rep.iterations
        assert rep.subspace_dists is dists
        assert len(calls) == rep.iterations
        assert len(rep.dtg_min_eigs) == rep.iterations

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


class TestScfSolveChecks:
    """An unvalidated spec is checked where it is made: its data when
    ``SubproblemSpec`` is constructed, before any function reads them;
    scf_solve then checks LAPACK's status on every sweep."""

    CFG = ScfConfig(eps_scf=1e-12, max_iter=20)

    @staticmethod
    def data():
        rng = np.random.default_rng(41)
        return np.diag(rng.uniform(0.5, 4.0, 6)), rng.standard_normal((6, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["A", "D"])
    def test_rejects_non_finite_data(self, where, bad):
        A, D = self.data()
        if where == "A":
            A[3, 1] = A[1, 3] = bad
        else:
            D[3, 1] = bad
        # rejected whether or not products such as inf * 0 ran first
        with np.errstate(invalid="ignore"), pytest.raises(ContractViolation, match="non-finite"):
            scf_solve(SubproblemSpec(A, D, validate=False), cfg=self.CFG)

    @pytest.mark.parametrize("case", ["A-nan", "A-inf", "D-nan", "A-asymmetric", "A-3x2", "D-rows"])
    def test_construction_rejects_bad_data(self, case):
        A, D = self.data()
        if case == "A-nan":
            A[3, 1] = A[1, 3] = np.nan
        elif case == "A-inf":
            A[3, 1] = A[1, 3] = np.inf
        elif case == "D-nan":
            D[3, 1] = np.nan
        elif case == "A-asymmetric":
            A[0, 2] += 1e-8 * scale_of(A)
        elif case == "A-3x2":
            A = np.ones((3, 2))
        else:
            D = D[:5]
        # raised where the spec is made, naming A or D, before any function reads it
        with pytest.raises(ContractViolation, match=f"^{case[0]} "):
            SubproblemSpec(A, D, validate=False)

    def test_construction_averages_rounding_asymmetry(self):
        A, D = self.data()
        A[0, 2] += 1e-13
        spec = SubproblemSpec(A, D, validate=False)
        assert np.array_equal(spec.A, spec.A.T)

    def test_rejects_asymmetric_A(self):
        A, D = self.data()
        A[0, 2] += 1e-8
        with pytest.raises(ContractViolation, match="not symmetric"):
            scf_solve(SubproblemSpec(A, D, validate=False), cfg=self.CFG)

    def test_accepts_rounding_asymmetry(self):
        A, D = self.data()
        A_sym = A.copy()
        A[0, 2] += 1e-13
        rep = scf_solve(SubproblemSpec(A, D, validate=False), cfg=self.CFG)
        ref = scf_solve(SubproblemSpec(A_sym, D, validate=False), cfg=self.CFG)
        assert rep.iterations >= 1
        assert rep.eta_trace[-1] == pytest.approx(ref.eta_trace[-1], rel=1e-10)

    def test_lapack_eigensolver_failure_raises(self, monkeypatch):
        def failing_eigh_lo(a, signature):
            # numpy reports a LAPACK error by filling every output with NaN
            n = a.shape[0]
            return np.full(n, np.nan), np.full((n, n), np.nan)

        monkeypatch.setattr(linalg_module, "eigh_lo", failing_eigh_lo)
        A, D = self.data()
        with pytest.raises(SolverFailure, match="dsyevd"):
            scf_solve(SubproblemSpec(A, D, validate=False), cfg=self.CFG)


@pytest.mark.parametrize(
    ("c", "call"),
    [
        (1e-160, scf_solve),
        (1e160, scf_solve),
        (1e-160, lambda spec: grad_eta(np.eye(3)[:, :1], spec)),
        (1e160, lambda spec: eta(np.eye(3)[:, :1], spec)),
        (1e-309, lambda spec: grad_eta(np.eye(3)[:, :1], spec)),
    ],
    ids=["solve-1e-160", "solve-1e160", "grad_eta-1e-160", "eta-1e160", "grad_eta-1e-309"],
)
def test_squares_past_the_float_range_ask_to_rescale_D(c, call):
    # xi^2 (c = 1e-160) or tr(G^T D)^2 (c = 1e160) overflows, and at
    # c = 1e-309 xi itself is inf; the maximizer does not depend on the
    # scale of D, and at 1e+-150 it solves
    spec = SubproblemSpec(np.diag([1.0, 2.0, 3.0]), c * np.array([[1.0], [0.5], [0.0]]))
    with pytest.raises(ContractViolation, match="rescale D"):
        call(spec)


@pytest.mark.parametrize("c", [1e150, 1e160, 1e170])
def test_grad_eta_at_large_D_is_finite_or_asks_to_rescale_D(c):
    # xi = 1/c, so 2/xi^2 overflows (c = 1e160) or xi^2 underflows to 0
    # (c = 1e170); eta itself already asks to rescale D at both
    spec = SubproblemSpec(np.diag([1.0, 2.0, 3.0]), c * np.array([[1.0], [0.5], [0.0]]))
    G = np.eye(3)[:, :1]
    if c < 1e160:
        assert np.all(np.isfinite(grad_eta(G, spec)))
    else:
        with pytest.raises(ContractViolation, match="rescale D"):
            grad_eta(G, spec)


def test_unevaluable_gradient_test_never_stops_the_solve():
    # xi^2 (|A|_1 + |D|_1) overflows at every iterate, so the scaled
    # gradient norm is inf and only the relative-change test stops
    A = 1e10 * np.diag([1.0, 2.0, 3.0])
    spec = SubproblemSpec(A, 1e-140 * np.array([[1.0], [0.5], [0.0]]))
    rep = scf_solve(spec)
    assert rep.termination_reason == "rel_change_tol"
    assert rep.grad_norms and all(g == np.inf for g in rep.grad_norms)
    x = np.linalg.solve(spec.A, spec.D)
    assert np.allclose(rep.solution, x / np.linalg.norm(x), atol=1e-4)


def _spec_3x1(A=np.diag([1.0, 2.0, 3.0]), D=np.ones((3, 1))):
    return SubproblemSpec(A, D, validate=False)


@pytest.mark.parametrize(
    ("call", "error"),
    [
        (lambda: scf_solve(_spec_3x1(A=np.ones((3, 2)))), ContractViolation),
        (lambda: scf_solve(_spec_3x1(D=np.ones((2, 1)))), ContractViolation),
        (lambda: scf_solve(_spec_3x1(D=np.ones((3, 3)))), ContractViolation),
        (lambda: scf_solve(_spec_3x1(), G0=np.eye(3)[:, :2]), ContractViolation),
        (lambda: scf_solve(_spec_3x1(D=np.zeros((3, 1)))), UndefinedRatioError),
        (lambda: ScfConfig(max_iter=0), ContractViolation),
        (lambda: second_order_check(np.eye(1), SubproblemSpec(np.eye(1), np.ones((1, 1)))),
         ContractViolation),
    ],
    ids=["A-not-square", "D-rows", "k-not-below-n", "G0-shape", "D-zero", "max_iter-0",
         "second-order-k-not-below-n"],
)
def test_input_checks_raise_their_documented_class(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("function", [eta, grad_eta, build_E, kkt_residual, second_order_check],
                         ids=lambda f: f.__name__)
def test_point_functions_reject_a_G_of_another_shape(function):
    # one check for every function of a point: a G with k - 1 or k + 1
    # columns, another row count or a non-finite entry raises naming G
    spec = random_spec(np.random.default_rng(56), 5, 2)
    for G in (np.eye(5)[:, :1], np.eye(5)[:, :3], np.eye(4)[:, :2]):
        with pytest.raises(ContractViolation, match="G must be 5x2"):
            function(G, spec)
    G = np.eye(5)[:, :2]
    G[4, 1] = np.nan
    with pytest.raises(ContractViolation, match="G contains non-finite"):
        function(G, spec)


@pytest.mark.parametrize("count", [2.5, float("nan"), True], ids=["fraction", "nan", "bool"])
@pytest.mark.parametrize(
    ("config", "cap"),
    [(ScfConfig, "max_iter"), (OmccaConfig, "max_cycles"), (AltConfig, "max_outer")],
)
def test_iteration_cap_must_be_an_integer(config, cap, count):
    # a fractional cap would run ceil(cap) sweeps or die inside islice
    with pytest.raises(ContractViolation, match=cap):
        config(**{cap: count})
    assert getattr(config(**{cap: np.int64(3)}), cap) == 3


class TestSecondOrderCheck:
    @pytest.mark.parametrize(
        "point", [MAXIMIZER_HIGH, MAXIMIZER_LOW], ids=["high", "low"]
    )
    def test_reference_maximizers_pass(self, point):
        rep = second_order_check(point, ref_spec())
        assert rep.passed
        assert rep.worst_margin >= -1e-8

    def test_zero_objective_saddle_fails(self):
        spec = SubproblemSpec(np.diag([1.0, 2.0]), np.array([[0.0], [1.0]]))
        g = np.array([[1.0], [0.0]])
        rep = second_order_check(g, spec)
        assert not rep.passed

    def test_closed_form_maximizer_passes(self):
        rng = np.random.default_rng(12)
        spec = random_spec(rng, 6, 1)
        g = np.linalg.solve(spec.A, spec.D)
        g /= np.linalg.norm(g)
        rep = second_order_check(g, spec)
        assert rep.passed
        assert rep.worst_margin >= -1e-10

    def test_rejects_non_stationary_point(self):
        rng = np.random.default_rng(13)
        spec = random_spec(rng, 6, 2)
        G = random_stiefel(6, 2, rng)
        with pytest.raises(ContractViolation):
            second_order_check(G, spec)

    def test_saddle_with_zero_lhs_fails(self):
        # a stationary point whose only ascent direction rotates e2 to e3;
        # tr(D^T H) = 0 on every tangent H, so the whole margin is in rhs
        n = 30
        A = np.diag([1.0, 10.0, 8.9] + [100.0] * (n - 3))
        D = np.zeros((n, 2))
        D[0, 0], D[1, 1] = 1.0, 0.1
        spec = SubproblemSpec(A, D)
        G = np.eye(n)[:, :2]
        assert kkt_residual(G, spec) == 0.0
        for t in (1e-3, 1e-2, 1e-1):
            Gt = G.copy()
            Gt[1:3, 1] = [np.cos(t), np.sin(t)]
            assert eta(Gt, spec) > eta(G, spec)
        rep = second_order_check(G, spec)
        assert not rep.passed
        assert rep.dimension == n * 2 - 3
        # rhs - lhs = 0.11 * 8.9 - 0.99 along e3 e2^T, over the norm 0.11 * 100 + 0.99
        assert rep.worst_margin == pytest.approx(-0.011 / 11.99, rel=1e-9)

    @pytest.mark.parametrize("point", ["high", "low", "scf"])
    def test_margin_bounds_every_sampled_direction(self, point):
        # the worst margin is the smallest Rayleigh quotient of the form
        # rhs - lhs on the tangent space, built here by polarization over
        # a basis of its own; no unit direction can read lower
        if point == "scf":
            spec = random_spec(np.random.default_rng(14), 6, 2)
            G = scf_solve(spec, cfg=ScfConfig(eps_scf=1e-12, max_iter=500)).solution
        else:
            spec = ref_spec()
            G = MAXIMIZER_HIGH if point == "high" else MAXIMIZER_LOW
        n, k = G.shape
        e = eta(G, spec)
        xi = np.trace(G.T @ spec.A @ G) / np.trace(G.T @ spec.D)
        M = G.T @ spec.A @ G - xi * (G.T @ spec.D)
        M = 0.5 * (M + M.T)

        def margin(H):
            lhs = np.trace(spec.D.T @ H) ** 2
            return e * np.trace(H.T @ spec.A @ H) - e * np.trace(H @ M @ H.T) - lhs

        G_perp = np.linalg.svd(np.eye(n) - G @ G.T)[0][:, : n - k]
        basis = [np.outer(G_perp[:, i], np.eye(k)[c]) for i in range(n - k) for c in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                K = np.zeros((k, k))
                K[a, b], K[b, a] = 1.0, -1.0
                basis.append(G @ K / np.sqrt(2.0))
        form = np.array(
            [[(margin(X + Y) - margin(X - Y)) / 4.0 for Y in basis] for X in basis]
        )
        vals = np.linalg.eigvalsh(form)
        scale = np.max(np.abs(vals))

        rep = second_order_check(G, spec)
        assert rep.passed
        assert rep.dimension == len(basis)
        assert rep.worst_margin == pytest.approx(vals[0] / scale, abs=1e-10)
        rng = np.random.default_rng(15)
        for _ in range(2000):
            H = sample_tangent(G, rng)
            H /= np.linalg.norm(H)
            assert rep.worst_margin <= margin(H) / scale

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
