"""Pairwise view-affinity weights for the multiset objective.

The affinity of two centered views is the nuclear norm of their
cross-covariance normalized by the view variances; it always lies in
[0, 1], and is read from the reduced cross blocks of a
``MultiViewProblem``.  A selection heuristic (uniform / maximum-affinity
spanning tree / top-p) picks which pairs participate, and a soft-max over
the selected affinities produces the final weights, which sum to one over
unordered pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .linalg import symmetric_matrix
from .multiset import build_multiview

# Soft-max bandwidth of every weighting unless the caller gives one.
BANDWIDTH = 20.0


@dataclass
class WeightMatrix:
    """Symmetric pair weights for ``size`` views.

    ``rho`` holds the soft-max-normalized weights of the selected pairs
    (exactly zero for unselected ones).  The ordered double sum over
    i != j therefore totals 2, each unordered pair contributing its
    weight twice.
    """

    rho: np.ndarray
    scheme: str

    @property
    def size(self):
        return self.rho.shape[0]

    def selected_pairs(self):
        """Unordered pairs (i, j), i < j, with nonzero weight."""
        ell = self.size
        return [(i, j) for i in range(ell) for j in range(i + 1, ell) if self.rho[i, j] != 0.0]

    @classmethod
    def custom(cls, rho):
        """Wrap caller-supplied weights (symmetric by ``symmetric_matrix``'s
        rule, zero diagonal), normalizing them to unit sum over unordered pairs."""
        rho = symmetric_matrix(rho, "custom weights")
        ell = rho.shape[0]
        if np.any(np.diag(rho) != 0):
            raise ContractViolation("custom weights must have a zero diagonal")
        if np.any(rho < 0):
            raise ContractViolation("custom weights must be nonnegative")
        total = sum(rho[i, j] for i in range(ell) for j in range(i + 1, ell))
        if total <= 0:
            raise ContractViolation("custom weights must have a positive sum")
        return cls(rho=rho / total, scheme="custom")


def pairwise_rho_hat(Si, Sj):
    """Affinity of two centered views: nuclear norm of Si Sj^T over
    sqrt(tr(Si Si^T) tr(Sj Sj^T)), without forming Si Sj^T.  Lies in [0, 1]."""
    return float(build_multiview([Si, Sj]).rho_hat[0, 1])


def rho_hat_matrix(views):
    """All pairwise affinities as a symmetric matrix with zero diagonal."""
    return build_multiview(views).rho_hat.copy()


def parse_scheme(scheme):
    """Normalize a scheme spec: 'uniform', 'tree' or 'top:<p>' -> (name, p)."""
    if scheme in ("uniform", "tree"):
        return scheme, None
    if isinstance(scheme, str) and scheme.startswith("top:"):
        try:
            p = int(scheme.split(":", 1)[1])
        except ValueError:
            raise ContractViolation(f"bad top-p weight spec {scheme!r}") from None
        return "top", p
    raise ContractViolation(f"unknown weighting scheme {scheme!r}")


def _mst_edges(rho_hat):
    """Kruskal's rule on the complete graph with edge cost 1 - rho_hat,
    edges taken in (cost, i, j) order so ties break reproducibly.  Each view
    carries its component's label; an edge joining two labels is kept and
    j's component takes i's label.  The edges come back in the order kept."""
    ell = rho_hat.shape[0]
    edges = sorted((1.0 - rho_hat[i, j], i, j) for i in range(ell) for j in range(i + 1, ell))
    label = np.arange(ell)
    tree = []
    for _, i, j in edges:
        if label[i] != label[j]:
            label[label == label[j]] = label[i]
            tree.append((i, j))
    return tree


def select_weights(rho_hat, scheme):
    """Pick the pairs that participate in the objective.

    Returns a list of (i, j, value) over unordered pairs i < j:
    uniform keeps every pair with value 1; tree keeps the maximum-affinity
    spanning tree edges with their affinities; top-p keeps the p largest
    affinities.
    """
    rho_hat = np.asarray(rho_hat, dtype=float)
    ell = rho_hat.shape[0]
    if ell < 2:
        raise ContractViolation("need at least two views")
    name, p = parse_scheme(scheme)

    if name == "uniform":
        return [(i, j, 1.0) for i in range(ell) for j in range(i + 1, ell)]
    if name == "tree":
        return [(i, j, float(rho_hat[i, j])) for i, j in _mst_edges(rho_hat)]
    n_pairs = ell * (ell - 1) // 2
    if not (1 <= p <= n_pairs):
        raise ContractViolation(f"top-p needs 1 <= p <= {n_pairs}, got {p}")
    ranked = sorted(
        ((i, j) for i in range(ell) for j in range(i + 1, ell)),
        key=lambda e: (-rho_hat[e[0], e[1]], e[0], e[1]),
    )
    return [(i, j, float(rho_hat[i, j])) for i, j in ranked[:p]]


def softmax_normalize(edges, size, bandwidth=BANDWIDTH, scheme="custom"):
    """Soft-max the selected pair values into weights summing to 1.

    Subtracts the largest value (the smallest under a negative bandwidth)
    before exponentiating, so no exponent is positive and none can
    overflow; this also makes the result invariant to shifting all values
    by a constant.  Unselected pairs stay exactly zero.
    """
    if not np.isfinite(bandwidth):
        raise ContractViolation(f"bandwidth must be finite, got {bandwidth!r}")
    if not edges:
        raise ContractViolation("no selected pairs to normalize")
    vals = np.array([v for _, _, v in edges], dtype=float)
    ex = np.exp(bandwidth * (vals - (vals.max() if bandwidth >= 0 else vals.min())))
    w = ex / ex.sum()
    rho = np.zeros((size, size))
    for (i, j, _), wij in zip(edges, w):
        rho[i, j] = rho[j, i] = wij
    return WeightMatrix(rho=rho, scheme=str(scheme))


def build_weights(views, scheme="uniform", bandwidth=BANDWIDTH):
    """Affinities -> selection -> soft-max, end to end, for a list of views
    or a problem.  Uniform selection reads no affinity, so reduces no view."""
    prob = build_multiview(views)
    ell = len(prob.views)
    R = np.zeros((ell, ell)) if parse_scheme(scheme)[0] == "uniform" else prob.rho_hat
    edges = select_weights(R, scheme)
    return softmax_normalize(edges, ell, bandwidth=bandwidth, scheme=scheme)
