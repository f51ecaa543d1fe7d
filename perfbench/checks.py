"""Output checks run after every op, outside its timed region.

Each check returns a problem string, or None when the output passes.
Tolerances are the ones the acceptance suite uses for the same
guarantees.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

ORTH_TOL = 1e-10
RANGE_TOL = 1e-10
MONOTONE_TOL = 1e-12
PSD_TOL = 1e-9
AGREE_TOL = 1e-12
# a KKT residual of exactly zero reads as this many digits
MAX_DIGITS = 17.0


def orthonormal(X, what):
    X = np.asarray(X, dtype=float)
    err = float(np.max(np.abs(X.T @ X - np.eye(X.shape[1]))))
    if not err <= ORTH_TOL:
        return f"{what}: max|X^T X - I| = {err:.3e} > {ORTH_TOL:g}"
    return None


def in_range(X, U, what):
    """The multiset range constraint X = U U^T X, at roundoff."""
    X = np.asarray(X, dtype=float)
    err = float(np.max(np.abs(X - U @ (U.T @ X))))
    if not err <= RANGE_TOL * max(1.0, float(np.max(np.abs(X)))):
        return f"{what}: max|X - U U^T X| = {err:.3e}"
    return None


def nondecreasing(trace, what):
    tr = np.asarray(trace, dtype=float)
    if tr.size == 0:
        return f"{what}: empty trace"
    drops = np.diff(tr) < -MONOTONE_TOL * np.abs(tr[1:])
    if np.any(drops):
        i = int(np.argmax(drops))
        return f"{what}: trace drops at step {i + 1}: {tr[i]!r} -> {tr[i + 1]!r}"
    return None


def psd_certificate(min_eigs, C, what):
    bound = -PSD_TOL * float(np.max(np.abs(C)))
    worst = min(min_eigs) if len(min_eigs) else float("nan")
    if not worst >= bound:
        return f"{what}: min eig sym(X^T C Y) = {worst:.3e} < {bound:.3e}"
    return None


def agree(a, b, what):
    if not abs(a - b) <= AGREE_TOL * max(abs(a), abs(b)):
        return f"{what}: {a!r} != {b!r}"
    return None


def occa_kkt(X, Y, prob):
    """max over the X and Y block subproblems of the KKT residual at the
    returned pair, each divided by max|A| of its subproblem."""
    from occakit import scf

    a = float(np.einsum("ij,ij->", X, prob.A @ X))
    b = float(np.einsum("ij,ij->", Y, prob.B @ Y))
    spec_x = scf.SubproblemSpec(prob.A, (prob.C @ Y) / np.sqrt(b), validate=False)
    spec_y = scf.SubproblemSpec(prob.B, (prob.C.T @ X) / np.sqrt(a), validate=False)
    return max(
        scf.kkt_residual(X, spec_x) / float(np.max(np.abs(prob.A))),
        scf.kkt_residual(Y, spec_y) / float(np.max(np.abs(prob.B))),
    )


def omcca_kkt(projections, reduced, weights):
    """max over views of the KKT residual of the reduced subproblem
    (diag sigma^2, compute_Ds) at the returned projections, divided by
    max sigma^2."""
    from occakit import multiset, scf

    hat = [rv.U.T @ X for rv, X in zip(reduced, projections)]
    worst = 0.0
    for s, rv in enumerate(reduced):
        D = multiset.compute_Ds(s, hat, weights, reduced)
        spec = scf.SubproblemSpec(np.diag(rv.sigma**2), D, validate=False)
        worst = max(worst, scf.kkt_residual(hat[s], spec) / float(rv.sigma[0] ** 2))
    return worst


def digits(residual):
    """-log10 of a relative residual: the digits of accuracy reached."""
    return MAX_DIGITS if residual <= 10.0**-MAX_DIGITS else -math.log10(residual)


def digest(*parts):
    """Hash of arrays, numbers and lists, for byte-identity across passes."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def file_digest(path):
    """Hash of an output file; a JSON report has its wall time masked."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if path.suffix == ".json":
        payload = json.loads(raw)
        payload["wall_time_seconds"] = None
        raw = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()
