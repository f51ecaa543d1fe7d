import numpy as np
import pytest

from occakit import (
    ContractViolation,
    DegenerateViewError,
    SyntheticSpec,
    build_multiview,
    center,
    gen_synthetic,
    pairwise_rho_hat,
    rho_hat_matrix,
    select_weights,
    softmax_normalize,
)
from occakit.weighting import WeightMatrix, build_weights, parse_scheme

import oracles
from cases import rank_tail_views

# the l=4 affinity layout used in several tests, chosen so the best
# spanning tree is {01, 03, 12}
RHO4 = np.zeros((4, 4))
for (i, j), v in {
    (0, 1): 0.9,
    (0, 2): 0.2,
    (0, 3): 0.8,
    (1, 2): 0.7,
    (1, 3): 0.1,
    (2, 3): 0.6,
}.items():
    RHO4[i, j] = RHO4[j, i] = v


def _random_pair():
    rng = np.random.default_rng(1)
    return center(rng.standard_normal((3, 20))), center(rng.standard_normal((4, 20)))


def _q_below_n_pair():
    sx, sy = gen_synthetic(SyntheticSpec(m=60, n=50, q=30, seed=0))
    return center(sx), center(sy)


# view pairs on which the affinity must match the dense formula: random
# full-rank views, views with fewer samples than features (rank q - 1),
# and views whose singular-value tails straddle the rank rule
AFFINITY_PAIRS = {
    "random": _random_pair,
    "q<n": _q_below_n_pair,
    **{f"rank_tail{seed}": (lambda seed=seed: rank_tail_views(seed)) for seed in range(5)},
}


class TestPairwiseRhoHat:
    def test_identical_views_give_one(self):
        rng = np.random.default_rng(0)
        S = center(rng.standard_normal((3, 20)))
        assert pairwise_rho_hat(S, S) == pytest.approx(1.0, abs=1e-10)

    def test_zero_cross_covariance_gives_zero(self):
        S1 = center(np.array([[1.0, -1.0, 1.0, -1.0]]))
        S2 = center(np.array([[1.0, 1.0, -1.0, -1.0]]))
        assert pairwise_rho_hat(S1, S2) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("pair", list(AFFINITY_PAIRS))
    def test_matches_direct_svd_sum(self, pair):
        Si, Sj = AFFINITY_PAIRS[pair]()
        expected = oracles.dense_rho_hat(Si, Sj)
        assert pairwise_rho_hat(Si, Sj) == pytest.approx(expected, rel=1e-14)

    def test_degenerate_view(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DegenerateViewError):
            pairwise_rho_hat(np.zeros((2, 5)), center(rng.standard_normal((2, 5))))

    @pytest.mark.parametrize("seed", range(20))
    def test_bounded_by_one(self, seed):
        rng = np.random.default_rng(seed)
        Si = center(rng.standard_normal((int(rng.integers(2, 6)), 25)))
        Sj = center(rng.standard_normal((int(rng.integers(2, 6)), 25)))
        v = pairwise_rho_hat(Si, Sj)
        assert 0.0 <= v <= 1.0 + 1e-10


class TestSelectWeights:
    def test_uniform_counts(self):
        edges = select_weights(RHO4, "uniform")
        assert len(edges) == 6
        assert all(v == 1.0 for _, _, v in edges)

    def test_uniform_three_views(self):
        edges = select_weights(np.zeros((3, 3)), "uniform")
        assert sorted((i, j) for i, j, _ in edges) == [(0, 1), (0, 2), (1, 2)]

    def test_tree_matches_enumeration_oracle(self):
        edges = select_weights(RHO4, "tree")
        got = {(i, j) for i, j, _ in edges}
        expected, _ = oracles.best_spanning_tree(RHO4)
        assert got == expected == {(0, 1), (0, 3), (1, 2)}
        assert {v for _, _, v in edges} == {0.9, 0.8, 0.7}

    def test_tree_edge_count(self):
        rng = np.random.default_rng(3)
        for ell in (2, 3, 5, 7):
            R = rng.random((ell, ell))
            R = 0.5 * (R + R.T)
            np.fill_diagonal(R, 0.0)
            assert len(select_weights(R, "tree")) == ell - 1

    @pytest.mark.parametrize("ell", [2, 3, 5, 8])
    def test_tree_ties_break_toward_the_lower_pair(self, ell):
        # all costs equal: edges are taken in (i, j) order, so view 0's
        # edges span the views and every later edge closes a cycle
        R = np.full((ell, ell), 0.5)
        np.fill_diagonal(R, 0.0)
        edges = select_weights(R, "tree")
        assert [(i, j) for i, j, _ in edges] == [(0, j) for j in range(1, ell)]

    @pytest.mark.parametrize("seed", range(10))
    def test_tree_with_ties_has_the_enumeration_oracle_total(self, seed):
        # affinities rounded to 0.1 tie often; any tie-break must still
        # reach the maximum total affinity
        rng = np.random.default_rng(seed)
        ell = 3 + seed % 4
        R = np.round(rng.random((ell, ell)), 1)
        R = np.maximum(R, R.T)
        np.fill_diagonal(R, 0.0)
        _, best = oracles.best_spanning_tree(R)
        assert sum(v for _, _, v in select_weights(R, "tree")) == pytest.approx(best, abs=1e-12)

    def test_top_one_is_argmax(self):
        edges = select_weights(RHO4, "top:1")
        assert [(i, j) for i, j, _ in edges] == [(0, 1)]

    def test_top_p_counts(self):
        for p in range(1, 7):
            assert len(select_weights(RHO4, f"top:{p}")) == p

    def test_top_p_out_of_range(self):
        with pytest.raises(ContractViolation):
            select_weights(RHO4, "top:7")
        with pytest.raises(ContractViolation):
            select_weights(RHO4, "top:0")

    def test_parse_scheme(self):
        assert parse_scheme("uniform") == ("uniform", None)
        assert parse_scheme("tree") == ("tree", None)
        assert parse_scheme("top:3") == ("top", 3)
        with pytest.raises(ContractViolation):
            parse_scheme("best")


class TestSoftmaxNormalize:
    def test_two_equal_values(self):
        w = softmax_normalize([(0, 1, 0.5), (0, 2, 0.5)], size=3)
        assert w.rho[0, 1] == pytest.approx(0.5)
        assert w.rho[0, 2] == pytest.approx(0.5)
        assert w.rho[1, 2] == 0.0

    def test_single_edge(self):
        w = softmax_normalize([(0, 1, 0.3)], size=2)
        assert w.rho[0, 1] == pytest.approx(1.0)

    def test_reference_values_bandwidth_20(self):
        w = softmax_normalize([(0, 1, 1.0), (0, 2, 0.9)], size=3, bandwidth=20.0)
        assert w.rho[0, 1] == pytest.approx(0.880797, abs=1e-6)
        assert w.rho[0, 2] == pytest.approx(0.119203, abs=1e-6)

    def test_shift_invariance(self):
        edges = [(0, 1, 0.7), (0, 2, 0.4), (1, 2, 0.9)]
        shifted = [(i, j, v + 123.456) for i, j, v in edges]
        w1 = softmax_normalize(edges, size=3)
        w2 = softmax_normalize(shifted, size=3)
        assert np.allclose(w1.rho, w2.rho, atol=1e-14)

    def test_unordered_sum_is_one_and_symmetric(self):
        rng = np.random.default_rng(4)
        edges = [(i, j, float(rng.random())) for i in range(4) for j in range(i + 1, 4)]
        w = softmax_normalize(edges, size=4)
        assert np.allclose(w.rho, w.rho.T)
        total = sum(w.rho[i, j] for i in range(4) for j in range(i + 1, 4))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_large_negative_bandwidth_stays_finite(self):
        w = softmax_normalize([(0, 1, 0.7), (0, 2, 0.4), (1, 2, 0.9)], size=3, bandwidth=-1e4)
        assert np.all(np.isfinite(w.rho))
        assert w.rho[0, 1] + w.rho[0, 2] + w.rho[1, 2] == pytest.approx(1.0, abs=1e-12)
        assert w.rho[0, 2] == 1.0  # the smallest value takes all the weight

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ContractViolation, match="bandwidth"):
            softmax_normalize([(0, 1, 0.7), (0, 2, 0.4)], size=3, bandwidth=bandwidth)

    def test_empty_selection(self):
        with pytest.raises(ContractViolation):
            softmax_normalize([], size=3)


class TestBuildWeights:
    def test_end_to_end_uniform(self):
        rng = np.random.default_rng(5)
        views = [center(rng.standard_normal((3, 30))) for _ in range(3)]
        w = build_weights(views, "uniform")
        assert w.scheme == "uniform"
        assert len(w.selected_pairs()) == 3
        assert np.allclose(w.rho[w.rho > 0], 1 / 3)

    def test_rho_hat_matrix_symmetric_zero_diag(self):
        rng = np.random.default_rng(6)
        views = [center(rng.standard_normal((3, 30))) for _ in range(4)]
        R = rho_hat_matrix(views)
        assert np.allclose(R, R.T)
        assert np.all(np.diag(R) == 0)
        assert np.all(R[~np.eye(4, dtype=bool)] > 0)

    def test_custom_weights_normalized(self):
        rho = np.zeros((3, 3))
        rho[0, 1] = rho[1, 0] = 2.0
        rho[1, 2] = rho[2, 1] = 6.0
        w = WeightMatrix.custom(rho)
        assert w.rho[0, 1] == pytest.approx(0.25)
        assert w.rho[1, 2] == pytest.approx(0.75)

    @pytest.mark.parametrize("scheme", ["tree", "top:1"])
    def test_affinities_are_unit_free(self, scheme):
        # the product of two views' powers leaves the float range near a
        # data scale of 1e+-77; the affinities are formed on spectra rescaled
        # by powers of two, so data scaled by 2^+-300 give the same bits, and
        # data at 1e+-160 agree to rounding (there the SVD rescales the data)
        views = [center(v) for v in gen_synthetic(SyntheticSpec(m=20, n=15, q=300, seed=1))]
        views.append(center(gen_synthetic(SyntheticSpec(m=8, n=6, q=300, seed=2))[0]))
        ref = build_multiview(views).rho_hat
        for power in (-300, 300):
            scaled = build_multiview([np.ldexp(v, power) for v in views])
            assert np.array_equal(scaled.rho_hat, ref)
            assert np.array_equal(build_weights(scaled, scheme).rho, build_weights(views, scheme).rho)
        for c in (1e-160, 1e160):
            scaled = build_multiview([c * v for v in views])
            np.testing.assert_allclose(scaled.rho_hat, ref, rtol=0, atol=1e-14)

    def test_custom_weights_symmetric_to_rounding_are_averaged(self):
        Q, _ = np.linalg.qr(np.random.default_rng(24).standard_normal((3, 3)))
        rho = np.abs((Q * [1.0, 2.0, 3.0]) @ Q.T)
        np.fill_diagonal(rho, 0.0)
        assert 0.0 < np.max(np.abs(rho - rho.T)) <= 1e-15
        w = WeightMatrix.custom(rho)
        assert np.array_equal(w.rho, w.rho.T)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_custom_weights_must_be_finite(self, bad):
        # rejected before any arithmetic, so no RuntimeWarning fires
        with pytest.raises(ContractViolation, match="finite"):
            WeightMatrix.custom([[0.0, bad], [bad, 0.0]])

    @pytest.mark.parametrize("bad", [5.0, [0.0, 1.0], np.zeros((2, 2, 2))])
    def test_custom_weights_must_be_a_matrix(self, bad):
        with pytest.raises(ContractViolation, match="custom weights must be 2-d"):
            WeightMatrix.custom(bad)


@pytest.mark.parametrize(
    ("call", "match"),
    [
        (lambda: WeightMatrix.custom(np.array([[0.0, 1.0], [2.0, 0.0]])), "not symmetric"),
        (lambda: WeightMatrix.custom(np.array([[0.0, -1.0], [-1.0, 0.0]])), "nonnegative"),
        (lambda: WeightMatrix.custom(np.zeros((2, 2))), "positive sum"),
        (lambda: WeightMatrix.custom([[1.0, 1.0], [1.0, 0.0]]), "zero diagonal"),
        (lambda: parse_scheme("top:x"), "bad top-p"),
        (lambda: select_weights(np.zeros((1, 1)), "uniform"), "two views"),
    ],
    ids=["custom-asymmetric", "custom-negative", "custom-zero-sum", "custom-diagonal", "top-x",
         "one-view"],
)
def test_input_checks_raise_contract_violation(call, match):
    with pytest.raises(ContractViolation, match=match):
        call()
