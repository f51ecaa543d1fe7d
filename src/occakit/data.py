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

Binary twins.  ``save_matrix`` also writes the matrix it formatted, when
it is nonempty and finite, to ``<csv>.<digest>.npy`` beside the CSV,
``<digest>`` being the first 32 hex digits of the SHA-256 of the CSV's
bytes.  ``load_matrix`` (without a header) looks for twins of the CSV
first; only when one is there does it hash the bytes it read, and it
returns the twin of that digest when that loads as a nonempty, finite,
2-d float64 array whose shape, first row and last row, formatted as
``save_matrix`` formats them, match the CSV's bytes.  Any other file, a
twin that does not load or match so, or a CSV with a byte changed since
it was written is parsed as above.  The CSV stays the interface: a twin
only saves the parse of a file occakit wrote, is never written for a
file occakit only reads, and is safe to delete.  A twin is not the data:
one edited in a middle row is read in place of the CSV, so delete a
twin rather than edit it.
"""

from __future__ import annotations

import codecs
import contextlib
import glob
import hashlib
import json
import math
import os
import secrets
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ParseError
from .linalg import require_count

SCHEMA_VERSION = 1

# A twin is named by this many hex digits of its CSV's SHA-256.
_TWIN_DIGITS = 32
_TWIN_PATTERN = "." + "[0-9a-f]" * _TWIN_DIGITS + ".npy"


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


def _decode(raw, path):
    """The bytes of file ``path`` decoded as UTF-8 without a leading
    byte-order mark; a byte that does not decode is a ParseError at its
    line and field."""
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

    Without a header, when the file has binary twins its bytes are
    hashed, and the twin ``save_matrix`` wrote for exactly these bytes,
    if it loads and matches them, is returned in place of the parse (see
    the module docstring); the result is the same bit for bit.  A file
    without twins is parsed without hashing.

    Raises ParseError with the offending line/column for ragged rows,
    non-numeric or non-finite tokens (``nan``, ``inf``, overflow such as
    ``1e400``), bytes that are not UTF-8, or an empty file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not header and glob.glob(glob.escape(os.fspath(path)) + _TWIN_PATTERN):
        M = _read_twin(_twin_path(path, hashlib.sha256(raw)), raw)
        if M is not None:
            return M
    body = _decode(raw, path).splitlines()
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


def _twin_path(path, digest):
    """``<path>.<digest>.npy``, the twin of the CSV bytes hashed by ``digest``."""
    return f"{os.fspath(path)}.{digest.hexdigest()[:_TWIN_DIGITS]}.npy"


def _read_twin(twin, raw):
    """The matrix in the ``.npy`` file ``twin``, or None unless it holds a
    nonempty, finite, 2-d, C-ordered float64 array, as the parse returns
    and ``save_matrix`` writes, with one row per line of the CSV bytes
    ``raw``, which begin with its first row and end with its last as
    ``save_matrix`` formats them (a missing or cut-off twin is None;
    nothing is unpickled)."""
    try:
        with open(twin, "rb") as fh:
            M = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, MemoryError):
        return None
    if not (isinstance(M, np.ndarray) and M.dtype == np.float64 and M.ndim == 2 and M.size
            and M.flags.c_contiguous and raw.count(b"\n") == M.shape[0]
            and np.isfinite(M).all()):
        return None
    row_format = _row_format(M.shape[1])
    first, last = _row_bytes(row_format, M[0]), _row_bytes(row_format, M[-1])
    return M if raw.startswith(first) and raw.endswith(last) else None


def _write_twin(M, twin):
    """Write ``M`` to ``twin`` through a new temporary file beside it and
    ``os.replace``; on an OSError nothing is left behind.  A twin cut
    short by a crash does not load in ``_read_twin``, so no sync."""
    tmp = f"{twin}.{secrets.token_hex(8)}.tmp"
    try:
        fh = open(tmp, "xb")
    except OSError:
        return
    try:
        with fh:
            np.save(fh, np.ascontiguousarray(M), allow_pickle=False)
        os.replace(tmp, twin)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _row_format(columns):
    """The ``%`` format of one CSV row of ``columns`` values: 17
    significant digits, in the platform's line ending."""
    return ",".join(["%.17g"] * columns) + os.linesep


def _row_bytes(row_format, row):
    return (row_format % tuple(row.tolist())).encode("utf-8")


def save_matrix(M, path):
    """Write a matrix as CSV with 17 significant digits (lossless for
    IEEE doubles), in the platform's line endings, as text mode writes.

    Removes the binary twins of the CSV's earlier contents, then writes
    the twin of the new bytes when ``M`` is nonempty and finite (see the
    module docstring); a twin that cannot be written is left out and the
    CSV still stands."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    path = os.fspath(path)
    for old in glob.glob(glob.escape(path) + _TWIN_PATTERN):
        with contextlib.suppress(OSError):
            os.remove(old)
    row_format = _row_format(M.shape[1])
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for row in M:
            line = _row_bytes(row_format, row)
            digest.update(line)
            fh.write(line)
    if M.size and np.isfinite(M).all():
        _write_twin(M, _twin_path(path, digest))


def write_report(payload, path):
    """Serialize a report deterministically (sorted keys, fixed layout)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
