import numpy as np
import pytest

import occakit.linalg as linalg_module
from occakit import (
    ContractViolation,
    SolverFailure,
    SubproblemSpec,
    align,
    build_multiview,
    center,
    dist_tr,
    k_smallest_eigenbasis,
    orthonormalize,
    pair_align,
    sample_tangent,
    scf_solve,
    second_order_check,
)
from occakit.errors import ViewError
from occakit.linalg import fix_svd_signs, orthonormality_error, scale_of

import oracles
from cases import random_stiefel


class TestKSmallestEigenbasis:
    def test_diagonal(self):
        res = k_smallest_eigenbasis(np.diag([1.0, 2.0, 3.0]), 2)
        assert np.allclose(res.values, [1.0, 2.0])
        assert res.gap == pytest.approx(1.0)
        # basis spans e1, e2
        P = res.basis @ res.basis.T
        assert np.allclose(P, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_identity_degenerate_gap(self):
        res = k_smallest_eigenbasis(np.eye(3), 1)
        assert res.gap == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(res.basis) == pytest.approx(1.0)

    def test_matches_full_decomposition(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((6, 6))
        E = 0.5 * (M + M.T)
        res = k_smallest_eigenbasis(E, 3)
        full = np.sort(np.linalg.eigvalsh(E))
        assert np.allclose(res.values, full[:3], atol=1e-10)
        assert res.gap == pytest.approx(full[3] - full[2], abs=1e-10)

    def test_rejects_nonsymmetric(self):
        E = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ContractViolation):
            k_smallest_eigenbasis(E, 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ContractViolation):
            k_smallest_eigenbasis(np.eye(3), 3)
        with pytest.raises(ContractViolation):
            k_smallest_eigenbasis(np.eye(3), 0)

    @pytest.mark.parametrize("n, k", [(7, 2), (9, 2), (60, 5), (200, 10), (520, 10)])
    def test_bitwise_equal_to_numpy_eigh(self, n, k):
        rng = np.random.default_rng(n)
        for _ in range(2):
            M = rng.standard_normal((n, n))
            E = 0.5 * (M + M.T)
            res = k_smallest_eigenbasis(E, k)
            vals, vecs = np.linalg.eigh(E)
            assert np.array_equal(res.values, vals[:k])
            assert np.array_equal(res.basis, vecs[:, :k])
            assert res.gap == vals[k] - vals[k - 1]

    def test_tiny_asymmetry_is_averaged_away(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((9, 9))
        E = 0.5 * (M + M.T)
        E[0, 1] += 1e-11
        res = k_smallest_eigenbasis(E, 2)
        vals, vecs = np.linalg.eigh(0.5 * (E + E.T))
        assert np.array_equal(res.values, vals[:2])
        assert np.array_equal(res.basis, vecs[:, :2])

    def test_rejects_non_finite(self):
        E = np.eye(4)
        E[2, 2] = np.nan
        with pytest.raises(ContractViolation):
            k_smallest_eigenbasis(E, 1)

    # random (n, k) per seed, plus one fixed instance above n = 500
    @pytest.mark.parametrize(
        "seed, n, k", [(seed, None, None) for seed in range(10)] + [(3, 600, 4)],
        ids=[*map(str, range(10)), "n600-k4"],
    )
    def test_residual_bound_random(self, seed, n, k):
        rng = np.random.default_rng(seed)
        if n is None:
            n = int(rng.integers(5, 120))
            k = int(rng.integers(1, min(6, n)))
        M = rng.standard_normal((n, n))
        E = 0.5 * (M + M.T)
        res = k_smallest_eigenbasis(E, k)
        resid = np.max(np.abs(E @ res.basis - res.basis * res.values))
        assert resid <= 1e-8 * scale_of(E)
        assert orthonormality_error(res.basis) <= 1e-10
        oracle = np.linalg.eigvalsh(E)[:k]
        assert np.allclose(res.values, oracle, rtol=0, atol=1e-10 * np.max(np.abs(E)))

    def test_residual_bound_hundred_matrices_up_to_500(self):
        rng = np.random.default_rng(424242)
        for _ in range(100):
            n = int(rng.integers(5, 501))
            k = int(rng.integers(1, min(8, n)))
            M = rng.standard_normal((n, n))
            E = 0.5 * (M + M.T)
            res = k_smallest_eigenbasis(E, k)
            resid = np.max(np.abs(E @ res.basis - res.basis * res.values))
            assert resid <= 1e-8 * scale_of(E)


class TestAlign:
    def test_identity_cross_product_unchanged(self):
        rng = np.random.default_rng(0)
        G = random_stiefel(5, 2, rng)
        # build D so that G^T D = I
        D = G.copy()
        out = align(G, D)
        assert np.allclose(out, G, atol=1e-12)

    def test_sign_flip_k1(self):
        g = np.array([[1.0], [0.0]])
        d = np.array([[-3.0], [0.0]])
        out = align(g, d)
        assert np.allclose(out, -g)
        assert (out.T @ d).item() == pytest.approx(3.0)

    def test_zero_cross_product_returns_input(self):
        g = np.array([[1.0], [0.0]])
        d = np.array([[0.0], [5.0]])
        assert np.allclose(align(g, d), g)

    def test_trace_equals_singular_value_sum(self):
        rng = np.random.default_rng(11)
        G = random_stiefel(5, 2, rng)
        D = rng.standard_normal((5, 2))
        out = align(G, D)
        sv = np.linalg.svd(G.T @ D, compute_uv=False)
        assert np.trace(out.T @ D) == pytest.approx(sv.sum(), rel=1e-10)
        W = out.T @ D
        assert np.max(np.abs(W - W.T)) <= 1e-10
        assert np.linalg.eigvalsh(0.5 * (W + W.T))[0] >= -1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        G = random_stiefel(6, 3, rng)
        D = rng.standard_normal((6, 3))
        once = align(G, D)
        twice = align(once, D)
        assert np.max(np.abs(twice - once)) <= 1e-10


class TestPairAlign:
    def test_diagonal_nonnegative_noop(self):
        rng = np.random.default_rng(2)
        X = random_stiefel(5, 2, rng)
        Y = random_stiefel(4, 2, rng)
        # engineer C so X^T C Y = diag(2, 1)
        C = X @ np.diag([2.0, 1.0]) @ Y.T
        X2, Y2 = pair_align(X, Y, C)
        W = X2.T @ C @ Y2
        assert np.allclose(W, np.diag([2.0, 1.0]), atol=1e-10)
        assert dist_tr(X2, X) <= 1e-10
        assert dist_tr(Y2, Y) <= 1e-10

    def test_minus_identity_absorbed(self):
        X = np.eye(3)[:, :2]
        Y = np.eye(3)[:, :2]
        C = -np.eye(3)
        X2, Y2 = pair_align(X, Y, C)
        assert np.allclose(X2.T @ C @ Y2, np.eye(2), atol=1e-12)

    def test_trace_becomes_nuclear_norm(self):
        rng = np.random.default_rng(5)
        X = random_stiefel(6, 2, rng)
        Y = random_stiefel(5, 2, rng)
        C = rng.standard_normal((6, 5))
        sv = np.linalg.svd(X.T @ C @ Y, compute_uv=False)
        X2, Y2 = pair_align(X, Y, C)
        W = X2.T @ C @ Y2
        assert np.trace(W) == pytest.approx(sv.sum(), rel=1e-10)
        assert np.max(np.abs(W - W.T)) <= 1e-10

    def test_zero_cross_product_returns_copies(self):
        # X^T C Y = 0: every rotation is as good, so none is applied
        X, Y = np.eye(3)[:, :1], np.eye(3)[:, 1:2]
        X2, Y2 = pair_align(X, Y, np.eye(3))
        assert np.array_equal(X2, X) and np.array_equal(Y2, Y)
        assert not np.shares_memory(X2, X) and not np.shares_memory(Y2, Y)


class TestSvdFactors:
    # align and pair_align call numpy's dgesdd gufunc directly; they must
    # give the bits of the np.linalg.svd formula they replace
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_bitwise_equal_to_numpy_svd(self, k, scale):
        rng = np.random.default_rng(100 * k)
        for _ in range(20):
            G = random_stiefel(k + 3, k, rng)
            D = scale * rng.standard_normal((k + 3, k))
            U, _, Vt = np.linalg.svd(G.T @ D)
            assert np.array_equal(align(G, D), G @ (U @ Vt))
            Y = random_stiefel(k + 2, k, rng)
            C = scale * rng.standard_normal((k + 3, k + 2))
            U, _, Vt = np.linalg.svd(G.T @ C @ Y)
            X2, Y2 = pair_align(G, Y, C)
            assert np.array_equal(X2, G @ U)
            assert np.array_equal(Y2, Y @ Vt.T)

    def test_lapack_failure_raises(self, monkeypatch):
        def failing_svd_f(a, signature):
            # numpy reports a LAPACK error by filling every output with NaN
            n = a.shape[0]
            return np.full((n, n), np.nan), np.full(n, np.nan), np.full((n, n), np.nan)

        monkeypatch.setattr(linalg_module, "svd_f", failing_svd_f)
        rng = np.random.default_rng(3)
        G = random_stiefel(4, 2, rng)
        with pytest.raises(SolverFailure, match="dgesdd"):
            align(G, rng.standard_normal((4, 2)))
        with pytest.raises(SolverFailure, match="dgesdd"):
            pair_align(G, G, np.eye(4))


class TestDistTr:
    def test_identical(self):
        rng = np.random.default_rng(1)
        G = random_stiefel(6, 3, rng)
        assert dist_tr(G, G) == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_subspaces(self):
        G1 = np.eye(4)[:, :2]
        G2 = np.eye(4)[:, 2:]
        assert dist_tr(G1, G2) == pytest.approx(2.0)

    def test_rotated_copy_is_zero(self):
        rng = np.random.default_rng(4)
        G = random_stiefel(7, 3, rng)
        Q = orthonormalize(rng.standard_normal((3, 3)))
        assert dist_tr(G, G @ Q) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_principal_angle_oracle(self, seed):
        rng = np.random.default_rng(seed)
        G1 = random_stiefel(8, 3, rng)
        G2 = random_stiefel(8, 3, rng)
        assert dist_tr(G1, G2) == pytest.approx(
            oracles.subspace_distance(G1, G2), abs=1e-9
        )
        assert dist_tr(G1, G2) == pytest.approx(dist_tr(G2, G1), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            dist_tr(np.eye(3)[:, :1], np.eye(4)[:, :1])


class TestSampleTangent:
    def test_k1_exact_orthogonality(self):
        rng = np.random.default_rng(0)
        g = random_stiefel(5, 1, rng)
        H = sample_tangent(g, rng)
        assert abs((H.T @ g).item()) <= 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_skew_condition(self, seed):
        rng = np.random.default_rng(seed)
        G = random_stiefel(7, 3, rng)
        H = sample_tangent(G, rng)
        assert np.max(np.abs(H.T @ G + G.T @ H)) <= 1e-12


class TestOrthonormalize:
    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((5, 3))
        assert np.array_equal(orthonormalize(M), orthonormalize(M.copy()))


def test_fix_svd_signs_matches_the_column_loop():
    def column_loop(U, Vt):
        # the column-by-column rule, kept as the oracle
        U, Vt = U.copy(), Vt.copy()
        for j in range(U.shape[1]):
            col = U[:, j]
            nz = np.nonzero(col)[0]
            if nz.size and col[nz[0]] < 0:
                U[:, j] = -col
                Vt[j, :] = -Vt[j, :]
        return U, Vt

    rng = np.random.default_rng(8)
    U = rng.standard_normal((6, 5))
    Vt = rng.standard_normal((5, 4))
    U[0, 0] = -abs(U[0, 0])
    U[:, 1] = 0.0                            # a zero column
    U[:3, 2], U[3, 2] = 0.0, -1.5            # first nonzero below row 0, negative
    U[:2, 3], U[2, 3] = 0.0, 0.5             # first nonzero below row 0, positive
    U[0, 4], U[1, 4] = -0.0, -2.0            # a signed zero is not the first nonzero
    before = (U.copy(), Vt.copy())
    for got, want in zip(fix_svd_signs(U, Vt), column_loop(U, Vt)):
        assert got.tobytes() == want.tobytes()  # bitwise, signed zeros included
    assert U.tobytes() == before[0].tobytes() and Vt.tobytes() == before[1].tobytes()


def test_fix_svd_signs_preserves_product():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((5, 4))
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    U2, Vt2 = fix_svd_signs(U, Vt)
    assert np.allclose((U2 * s) @ Vt2, M, atol=1e-12)
    for j in range(U2.shape[1]):
        nz = np.nonzero(U2[:, j])[0]
        assert U2[nz[0], j] > 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: linalg_module.require_orthonormal(np.eye(3)[:2]),
        lambda: linalg_module.require_orthonormal(np.ones((3, 2))),
        lambda: k_smallest_eigenbasis(np.ones((3, 2)), 1),
        lambda: align(np.eye(3)[:, :2], np.ones((3, 1))),
        lambda: pair_align(np.eye(3)[:, :1], np.eye(2)[:, :1], np.ones((2, 3))),
        lambda: pair_align(np.eye(3)[:, :1], np.eye(2), np.ones((3, 2))),
    ],
    ids=["orthonormal-wide", "orthonormal-not", "eig-not-square", "align-shapes",
         "pair_align-C-shape", "pair_align-k"],
)
def test_input_checks_raise_contract_violation(call):
    with pytest.raises(ContractViolation):
        call()


_HELPERS = {
    "align": (align, ("G", "D")),
    "pair_align": (pair_align, ("X", "Y", "C")),
    "dist_tr": (dist_tr, ("G1", "G2")),
    "orthonormalize": (orthonormalize, ("G",)),
    "sample_tangent": (lambda G: sample_tangent(G, 0), ("G",)),
}


@pytest.mark.parametrize("fault", ["nan", "inf", "1-d"])
@pytest.mark.parametrize(
    "helper, arg",
    [(name, arg) for name, (_, args) in _HELPERS.items() for arg in args],
)
def test_public_helpers_check_their_matrices_by_name(helper, arg, fault):
    fn, names = _HELPERS[helper]
    good = {"X": np.eye(3, 2), "Y": np.eye(4, 2), "C": np.ones((3, 4))}
    args = {name: good.get(name, np.eye(3, 2)) for name in names}
    if fault == "1-d":
        args[arg] = args[arg][:, 0].copy()
        message = f"{arg} must be 2-d"
    else:
        args[arg] = args[arg].copy()
        args[arg][0, 0] = float(fault)
        message = f"{arg} contains non-finite entries"
    with pytest.raises(ContractViolation, match=message):
        fn(*args.values())


@pytest.mark.parametrize("c", [1e-150, 1e-6, 1e-3, 1.0, 1e4, 1e8, 1e150])
def test_every_check_decides_as_at_unit_scale(c):
    # each tolerance is relative to scale_of its operands, so multiplying
    # the data by c changes no decision of the symmetry, centering,
    # stationarity or second-order test
    rng = np.random.default_rng(24)
    Q = orthonormalize(rng.standard_normal((5, 5)))
    A = (Q * np.arange(1.0, 6.0)) @ Q.T
    D = rng.standard_normal((5, 2))
    assert (A != A.T).any()  # SPD and symmetric only to rounding
    eta_1 = scf_solve(SubproblemSpec(A, D)).eta_trace[-1]
    assert scf_solve(SubproblemSpec(c * A, c * D)).eta_trace[-1] / c == pytest.approx(
        eta_1, rel=1e-12
    )

    off = A.copy()
    off[0, 1] += 1e-8 * np.max(np.abs(A))
    with pytest.raises(ContractViolation, match="not symmetric"):
        SubproblemSpec(c * off, c * D)

    views = [center(rng.standard_normal((4, 30))) for _ in range(2)]
    views[0] += 1e-9 * np.max(np.abs(views[0]))
    with pytest.raises(ViewError, match="not centered") as exc:
        build_multiview([c * v for v in views])
    assert exc.value.view == 0

    spec = SubproblemSpec(c * np.diag([1.0, 2.0, 3.0]), c * np.array([[1.0], [0.5], [0.0]]))
    with pytest.raises(ContractViolation, match="stationary"):
        second_order_check(np.eye(3)[:, :1], spec)

    saddle = SubproblemSpec(c * np.diag([1.0, 2.0]), c * np.array([[0.0], [1.0]]))
    assert not second_order_check(np.array([[1.0], [0.0]]), saddle).passed
