r"""Data ingestion, centering, the synthetic two-view generator and
serialization of matrices and run reports.

Matrices are stored features-by-samples, matching every formula in the
solvers.  CSV files carry one matrix row per line with 17-significant-
digit decimals, so save/load round-trips are exact for double precision.

The CSV grammar ``load_matrix`` accepts: UTF-8 text (a byte that does
not decode is reported at its line and field), with or without a
leading byte-order mark, split into lines as ``str.splitlines`` does
(``\n``, ``\r\n``, ``\r`` and the other Unicode line boundaries); one
optional header line (``header=True``), skipped unread; then one or more
rows of the same number of comma-separated tokens, and at most one empty
line after the last row.  A token is an ASCII decimal float as numpy's
C reader converts it (``PyOS_string_to_double``), with surrounding
whitespace allowed: no quotes, comments, hex, digit-group underscores or
non-ASCII digits.  ``nan``, ``inf`` and overflowing tokens parse but are
rejected as non-finite.  The body is parsed in one call to that reader;
the line/column scanner runs only after the reader rejects a file, to
name the first offending line and column.
"""

from __future__ import annotations

import codecs
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ParseError
from .linalg import require_count

SCHEMA_VERSION = 1


@dataclass
class SyntheticSpec:
    """Two latent-factor views: a shared factor of dimension
    ceil(max(m, n)/2), a second factor of dimension ceil(2 max(m, n)/5),
    plus isotropic noise of scale ``lam``; q >= 2, as one centered sample is 0."""

    m: int
    n: int
    q: int
    lam: float = 2e-4
    seed: int = 0

    def __post_init__(self):
        for name, least in (("m", 1), ("n", 1), ("q", 2), ("seed", 0)):
            require_count(name, getattr(self, name), least)
        if not (self.lam >= 0 and math.isfinite(self.lam)):
            raise ContractViolation(f"lam must be nonnegative and finite, got {self.lam!r}")

    @property
    def d_z(self):
        return math.ceil(max(self.m, self.n) / 2)

    @property
    def d_w(self):
        return math.ceil(2 * max(self.m, self.n) / 5)


def center(S):
    """Subtract the row means; every formula downstream assumes this."""
    S = np.asarray(S, dtype=float)
    return S - S.mean(axis=1, keepdims=True)


def gen_synthetic(spec):
    """Draw the two views S_X (m x q) and S_Y (n x q).

    All factor matrices are standard normal, each drawn from its own
    substream of the seed in the fixed order Z, W, P_X, Q_X, P_Y, Q_Y,
    E_X, E_Y, so outputs are bitwise reproducible per seed.  Outputs are
    NOT centered; callers center explicitly.  A ``lam`` so large that a
    view overflows raises ContractViolation.
    """
    m, n, q = spec.m, spec.n, spec.q
    d_z, d_w = spec.d_z, spec.d_w
    streams = np.random.SeedSequence(spec.seed).spawn(8)
    draw = [np.random.default_rng(s) for s in streams]
    Z = draw[0].standard_normal((d_z, q))
    W = draw[1].standard_normal((d_w, q))
    P_X = draw[2].standard_normal((m, d_z))
    Q_X = draw[3].standard_normal((m, d_w))
    P_Y = draw[4].standard_normal((n, d_z))
    Q_Y = draw[5].standard_normal((n, d_w))
    E_X = draw[6].standard_normal((m, q))
    E_Y = draw[7].standard_normal((n, q))
    with np.errstate(over="ignore", invalid="ignore"):
        S_X = P_X @ Z + Q_X @ W + spec.lam * E_X
        S_Y = P_Y @ Z + Q_Y @ W + spec.lam * E_Y
    if not (np.isfinite(S_X).all() and np.isfinite(S_Y).all()):
        raise ContractViolation(f"lam={spec.lam!r} puts the views outside floating-point range")
    return S_X, S_Y


def _parse(lines):
    """Parse CSV lines with numpy's C reader, the one conversion the
    loader accepts.  ``loadtxt`` skips empty lines and warns when none is
    left, so callers pass no empty line."""
    return np.loadtxt(lines, dtype=float, delimiter=",", ndmin=2, comments=None)


def _parses(text):
    """Whether the reader accepts ``text`` (one line or one token)."""
    if not text:
        return False
    try:
        _parse([text])
    except ValueError:
        return False
    return True


def _locate_error(body, offset, path):
    """Raise ParseError at the first ragged row or rejected token of a
    body the fast parse refused, scanning with the same conversion."""
    width = None
    for li, line in enumerate(body, start=offset):
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ParseError(
                f"ragged row: expected {width} columns, got {len(tokens)}",
                path=path,
                line=li,
            )
        if not _parses(line):
            for ci, tok in enumerate(tokens, start=1):
                if not _parses(tok):
                    raise ParseError(
                        f"non-numeric token {tok.strip()!r}", path=path, line=li, column=ci
                    )
    raise ParseError("not a numeric CSV matrix", path=path)


def _read_text(path):
    """The file decoded as UTF-8 without a leading byte-order mark; a byte
    that does not decode is a ParseError at its line and field."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the codec counts from after a byte-order mark; the bytes before
        # the bad one decode, and the sentinel keeps a trailing line break
        # from ending the list
        bad = exc.start + (len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0)
        lines = (raw[:bad].decode("utf-8-sig") + "x").splitlines()
        raise ParseError(
            f"invalid UTF-8 byte 0x{raw[bad]:02x}",
            path=path,
            line=len(lines),
            column=lines[-1].count(",") + 1,
        ) from None


def load_matrix(path, header=False):
    """Parse a CSV matrix (one row per line, comma separated; the grammar
    is in the module docstring).

    Raises ParseError with the offending line/column for ragged rows,
    non-numeric or non-finite tokens (``nan``, ``inf``, overflow such as
    ``1e400``), bytes that are not UTF-8, or an empty file.
    """
    body = _read_text(path).splitlines()
    offset = 1
    if header:
        body = body[1:]
        offset = 2
    if body and body[-1] == "":
        body.pop()  # one trailing empty line
    if not body:
        raise ParseError("empty file", path=path, line=1)
    M = None
    if all(body):  # an empty body line is an error; loadtxt would skip it
        try:
            M = _parse(body)
        except ValueError:
            pass
    if M is None or M.shape[0] != len(body):  # every body row lines up with a line
        _locate_error(body, offset, path)
    bad = np.argwhere(~np.isfinite(M))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        tok = body[i].split(",")[j].strip()
        raise ParseError(f"non-finite value {tok!r}", path=path, line=i + offset, column=j + 1)
    return M


def save_matrix(M, path):
    """Write a matrix as CSV with 17 significant digits (lossless for
    IEEE doubles)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    row_format = ",".join(["%.17g"] * M.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(row_format % tuple(row.tolist()) for row in M)


def write_report(payload, path):
    """Serialize a report deterministically (sorted keys, fixed layout)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
