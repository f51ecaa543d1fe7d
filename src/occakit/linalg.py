"""Dense linear-algebra primitives shared by every solver.

All matrices are plain ``numpy.ndarray`` with real (float64) entries.
Matrices with orthonormal columns ("Stiefel points") are ordinary arrays
that satisfy ``max|G^T G - I| <= ORTH_TOL``; helpers below test and
enforce that invariant.  The eigensolve and the SVD of the SCF sweep
call numpy's LAPACK gufuncs directly.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo, svd_f

from .errors import ContractViolation, SolverFailure

# Largest drift max|G^T G - I| that ``require_orthonormal`` accepts.
ORTH_TOL = 1e-10


def as_matrix(M, what="matrix"):
    """Validate and return ``M`` as a finite 2-d float64 array."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise ContractViolation(f"{what} must be 2-d and non-empty, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ContractViolation(f"{what} contains non-finite entries")
    return M


def scale_of(*arrays):
    """The largest magnitude in ``arrays`` (1 if all are zero): the unit of their tolerances."""
    return max(float(np.max(np.abs(a))) for a in arrays) or 1.0


def exponent_scaled(M, axis=None):
    """``M`` divided by the power of two (``np.frexp``) of its largest
    magnitude, over ``axis`` (None: all of ``M``); zeros stay as they are.
    Exact, so no bit of a ratio of its entries changes, and its squares
    stay in floating-point range at any scale."""
    return np.ldexp(M, -np.frexp(np.max(np.abs(M), axis=axis))[1])


def symmetric_matrix(M, what):
    """``M`` checked finite and square; an asymmetry up to 1e-10 of
    ``scale_of(M)`` is averaged away, a larger one raises.  A symmetric
    ``M`` comes back as given, without its scale being computed."""
    M = as_matrix(M, what)
    if M.shape[1] != M.shape[0]:
        raise ContractViolation(f"{what} must be square, got shape {M.shape}")
    asym = float(abs(M - M.T).max())
    if asym > 0.0 and asym > 1e-10 * scale_of(M):
        raise ContractViolation(f"{what} is not symmetric: max|{what} - {what}^T| = {asym:.3e}")
    if asym > 0.0:
        M = 0.5 * (M + M.T)
    return M


def require_count(name, count, least=1):
    """Raise ``ContractViolation`` unless ``count`` is an integer, not a bool, >= ``least``."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < least:
        raise ContractViolation(f"{name} must be >= {least} and an integer, got {count!r}")


def require_stop_rule(cfg, tol, cap):
    """A config's tolerance field ``tol`` positive, finite, not a bool; its cap ``cap`` a count."""
    value = getattr(cfg, tol)
    if isinstance(value, (bool, np.bool_)) or not (value > 0 and np.isfinite(value)):
        raise ContractViolation(f"{tol} must be positive and finite, got {value!r}")
    require_count(cap, getattr(cfg, cap))


def require_subspace_size(k, n):
    """Raise unless a k-column subspace of R^n is nonempty and proper."""
    if not (1 <= k < n):
        raise ContractViolation(f"need 1 <= k < n, got k={k}, n={n}")


def orthonormality_error(G):
    """max|G^T G - I|, the drift measured against ``ORTH_TOL``."""
    G = np.asarray(G)
    return float(abs(G.T @ G - np.eye(G.shape[1])).max())


def require_orthonormal(G, what="G"):
    G = as_matrix(G, what)
    if G.shape[0] < G.shape[1]:
        raise ContractViolation(f"{what} must be tall (n >= k), got shape {G.shape}")
    err = orthonormality_error(G)
    if err > ORTH_TOL:
        raise ContractViolation(f"{what} is not orthonormal: max|G^T G - I| = {err:.3e}")
    return G


def orthonormalize(G):
    """Thin QR of ``G`` with the diagonal of R forced nonnegative.

    The sign fix makes the result deterministic and leaves an
    already-orthonormal input unchanged.  ``G`` is checked by ``as_matrix``.
    """
    Q, R = np.linalg.qr(as_matrix(G, "G"))
    d = np.diag(R).copy()
    d[d == 0] = 1.0
    return Q * np.sign(d)


def fix_svd_signs(U, Vt):
    """Apply the column-sign convention to SVD factors.

    The first nonzero entry of each left singular vector is made
    nonnegative; the matching row of ``Vt`` absorbs the flip.  Guarantees
    run-to-run determinism wherever SVD factors feed outputs.
    """
    first = U[np.argmax(U != 0, axis=0), np.arange(U.shape[1])]
    signs = np.where(first < 0, -1.0, 1.0)
    return U * signs, Vt * signs[:, None]


def _k_smallest(E, k):
    """Eigenbasis of the ``k`` algebraically smallest eigenvalues of a
    finite, exactly symmetric n x n ``E``, for ``1 <= k < n``, unchecked:
    (basis, gap, all eigenvalues).  LAPACK ``dsyevd``, called as
    ``np.linalg.eigh`` calls it, computes every eigenpair in ascending
    order; the first k vectors are kept and eigenvalue k + 1 gives the
    gap.  A zero gap flags a tie at position k; the subspace is then
    only determined up to it.  numpy reports a LAPACK error as NaN
    outputs; a NaN eigenvalue raises ``SolverFailure``."""
    vals, vecs = eigh_lo(E, signature="d->dd")
    if not math.isfinite(vals[0]):
        raise SolverFailure(f"dsyevd failed on a {E.shape[0]} x {E.shape[0]} matrix")
    return vecs[:, :k], max(vals.item(k) - vals.item(k - 1), 0.0), vals


def align(G, D):
    """Rotate ``G`` in its own column space so that ``G^T D`` becomes
    symmetric positive semidefinite with maximal trace.

    Uses the SVD ``G^T D = U S V^T`` and returns ``G @ U @ V^T``; the new
    trace equals the sum of singular values of the old ``G^T D``.  When
    ``G^T D`` is exactly zero there is nothing to align and ``G`` is
    returned unchanged.

    Checks ``G`` and ``D`` by ``as_matrix`` and that they share a shape,
    then runs ``_align``, the unchecked kernel that ``scf_solve`` calls on
    every sweep.
    """
    G = as_matrix(G, "G")
    D = as_matrix(D, "D")
    if G.shape != D.shape:
        raise ContractViolation(f"G and D must share a shape, got {G.shape} vs {D.shape}")
    return _align(G, D)


def _align(G, D):
    """The kernel of ``align`` for float arrays of one shape:
    ``G^T D``, its ``dgesdd`` factors, ``G U V^T``."""
    W = G.T @ D
    if not np.count_nonzero(W):
        return G.copy()
    U, Vt = _svd_factors(W)
    return G @ (U @ Vt)


def pair_align(X, Y, C):
    """Jointly rotate ``X`` and ``Y`` so that ``X^T C Y`` becomes symmetric
    PSD with trace equal to its nuclear norm.

    Returns ``(X @ U, Y @ V)`` from the SVD ``X^T C Y = U S V^T``, once
    ``as_matrix`` passes all three and their shapes fit.
    """
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    C = as_matrix(C, "C")
    if C.shape != (X.shape[0], Y.shape[0]) or X.shape[1] != Y.shape[1]:
        raise ContractViolation(
            f"shape mismatch: X {X.shape}, Y {Y.shape}, C {C.shape}"
        )
    W = X.T @ C @ Y
    if not W.any():
        return X.copy(), Y.copy()
    U, Vt = _svd_factors(W)
    return X @ U, Y @ Vt.T


def _svd_factors(W):
    """Factors U, V^T of the full SVD W = U S V^T of a small square
    matrix from LAPACK ``dgesdd`` (the gufunc ``np.linalg.svd`` runs).
    numpy reports a LAPACK error as NaN outputs and a ``RuntimeWarning``;
    NaN factors raise ``SolverFailure``."""
    U, _, Vt = svd_f(W, signature="d->ddd")
    if not math.isfinite(U[0, 0]):
        raise SolverFailure(f"dgesdd failed on a {W.shape[0]} x {W.shape[1]} matrix")
    return U, Vt


def dist_tr(G1, G2):
    """Trace-norm subspace distance: the sum of sines of the principal
    angles between the column spaces of ``G1`` and ``G2``.

    Zero iff the spans coincide; equals k for orthogonal subspaces.  The
    sines are taken as the singular values of (I - G1 G1^T) G2, which is
    exact near zero angles where the arccos-of-cosine route loses half
    the working precision.  Both are checked by ``as_matrix``.
    """
    G1 = as_matrix(G1, "G1")
    G2 = as_matrix(G2, "G2")
    if G1.shape != G2.shape:
        raise ContractViolation(f"dimension mismatch: {G1.shape} vs {G2.shape}")
    P = G2 - G1 @ (G1.T @ G2)
    sin = np.clip(np.linalg.svd(P, compute_uv=False), 0.0, 1.0)
    return float(np.sum(sin))

