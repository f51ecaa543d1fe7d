r"""Data ingestion, centering, the synthetic two-view generator and
serialization of matrices and run reports.

Matrices are stored features-by-samples, matching every formula in the
solvers.  CSV files carry one matrix row per line with 17-significant-
digit decimals, so save/load round-trips are exact for double precision.

The bytes ``save_matrix`` writes are those of ``'%.17g' % v`` for every
value v (Python's correctly rounded conversion), joined by commas, each
row ended by ``os.linesep``.  They are produced a block of values at a
time in numpy: the 17 digits of v come from v times a power of two,
multiplied by a stored power of ten as an error-free (Dekker) product,
exact where that power is exact in binary (ties round half to even);
elsewhere a value within 1e-9 of a tie (rare: none in a
``gen_synthetic`` view at scale 1, 1e-300 or 1e300) is rounded by exact
integer arithmetic on ``float.as_integer_ratio()``.  The digits are then
laid out in fixed slots, and the unused slots are deleted.

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

Reduction twins.  A command that reduces a view loaded from a CSV with
a binary twin writes, by ``write_reduction`` and as it reduces the view
(so before anything that may fail after), the view's thin-SVD factors
at the default rank rule to ``<csv>.<digest>.svd.npy``,
``<digest>`` being the first 32 hex digits of the SHA-256 of the view's
shape and float64 bytes as reduced (so a centered and an uncentered load
of one CSV have twins of their own): one ``.npy`` of the
(n + 1 + q) x r float64 stack [U; sigma; V] of an n x q view of rank r.
``read_reduction`` returns them, in the layout ``reduce_views`` returns,
only when the CSV has reduction twins and the one of the view's digest
loads as a finite 2-d float64 array of that row count with 1 <= r <=
min(n, q) columns and sigma positive and nonincreasing; anything else is
ignored and the view is reduced again.  ``save_matrix`` removes a CSV's
reduction twins with its binary twins.  Like a binary twin, a reduction
twin is safe to delete and not to edit: one whose factors are changed
but still pass these checks is used as they stand.
"""

from __future__ import annotations

import codecs
import contextlib
import functools
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
_REDUCTION_PATTERN = "." + "[0-9a-f]" * _TWIN_DIGITS + ".svd.npy"


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


def _load_2d(npy):
    """The 2-d float64 array in the ``.npy`` file ``npy``, or None (a
    missing, empty or cut-off file is None; nothing is unpickled)."""
    try:
        with open(npy, "rb") as fh:
            M = np.load(fh, allow_pickle=False)
    except (OSError, EOFError, ValueError, MemoryError):
        return None
    return M if isinstance(M, np.ndarray) and M.dtype == np.float64 and M.ndim == 2 else None


def _read_twin(twin, raw):
    """The matrix in the ``.npy`` file ``twin``, or None unless it holds a
    nonempty, finite, 2-d, C-ordered float64 array, as the parse returns
    and ``save_matrix`` writes, with one row per line of the CSV bytes
    ``raw``, which begin with its first row and end with its last as
    ``save_matrix`` formats them."""
    M = _load_2d(twin)
    if not (M is not None and M.size and M.flags.c_contiguous
            and raw.count(b"\n") == M.shape[0] and np.isfinite(M).all()):
        return None
    ends = b"".join(_csv_chunks(M[[0, -1]]))  # the first row, then the last
    cut = ends.index(os.linesep.encode()) + len(os.linesep)
    return M if raw.startswith(ends[:cut]) and raw.endswith(ends[cut:]) else None


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


def _reduction_twin(path, S):
    """``<path>.<digest>.svd.npy``, the reduction twin of the view ``S``
    loaded from the CSV ``path``, ``<digest>`` hashing S's shape and bytes."""
    digest = hashlib.sha256(b"%d,%d;" % S.shape)
    digest.update(np.ascontiguousarray(S))
    return f"{os.fspath(path)}.{digest.hexdigest()[:_TWIN_DIGITS]}.svd.npy"


def read_reduction(path, S):
    """The thin-SVD factors (U, sigma, V) of the n x q view ``S`` loaded
    from the CSV ``path``, as its reduction twin holds them, or None (see
    the module docstring).  They come in the layout ``reduce_views``
    returns: U and sigma C-ordered, V the transpose of a C-ordered V^T.
    ``S`` is hashed only when the CSV has reduction twins."""
    if not glob.glob(glob.escape(os.fspath(path)) + _REDUCTION_PATTERN):
        return None
    M = _load_2d(_reduction_twin(path, S))
    n, q = S.shape
    if not (M is not None and M.shape[0] == n + 1 + q and 1 <= M.shape[1] <= min(n, q)
            and np.isfinite(M).all()):
        return None
    sigma = M[n].copy()
    if not (sigma[-1] > 0.0 and (sigma[:-1] >= sigma[1:]).all()):
        return None
    return M[:n].copy(), sigma, M[n + 1:].T.copy().T


def write_reduction(path, S, U, sigma, V):
    """Write the factors of the view ``S`` loaded from the CSV ``path`` to
    its reduction twin, only when the CSV has a binary twin, through
    ``_write_twin``; a twin that cannot be written is left out."""
    if glob.glob(glob.escape(os.fspath(path)) + _TWIN_PATTERN):
        _write_twin(np.vstack([U, sigma, V]), _reduction_twin(path, S))


# Values formatted per piece of a CSV, so memory stays flat in the size.
_CHUNK = 1 << 15
# Veltkamp's splitter for doubles, 2**27 + 1.
_SPLIT = 134217729.0
# Slots of one value in ``_csv_chunk``: sign, the "0.000" of a decimal
# exponent in [-4, -1], 17 digits each followed by a point slot, "e+XXX",
# then the separator.
_PREFIX, _BODY, _EXP, _SEP = 1, 6, 40, 45


@functools.cache
def _decade(e):
    """(T, H, Hh, Hl, L, t) of the decimal exponent ``e``: T is the least
    double not below 10**e, and 10**(16 - e) = (H + L) * 2**t, H an integer
    in [2**52, 2**53] split into halves Hh + Hl by Veltkamp's rule and L
    the remainder rounded to a double (0 where the power is exact)."""
    if e > 308:
        T = math.inf
    else:
        T = float(10**e) if e >= 0 else 1 / 10**-e  # correctly rounded
        num, den = T.as_integer_ratio()
        if num * 10 ** max(-e, 0) < den * 10 ** max(e, 0):
            T = math.nextafter(T, math.inf)
    p = 16 - e
    t = ((10**p).bit_length() - 53) if p >= 0 else -(10**-p).bit_length() - 52
    num = 10 ** max(p, 0) << max(-t, 0)
    den = 10 ** max(-p, 0) << max(t, 0)
    H, rem = divmod(num, den)
    if 2 * rem >= den:
        H, rem = H + 1, rem - den
    H = float(H)
    c = _SPLIT * H
    Hh = c - (c - H)
    return T, H, Hh, H - Hh, rem / den, t


def _exact_digits(a, e):
    """round-half-even(a * 10**(16 - e)) of the double ``a`` > 0, by integers."""
    num, den = a.as_integer_ratio()
    if e <= 16:
        num *= 10 ** (16 - e)
    else:
        den *= 10 ** (e - 16)
    D, rem = divmod(num, den)
    return D + (2 * rem > den or (2 * rem == den and D & 1))


def _digits(a):
    """The 17 significant digits D (int64) and decimal exponent e of each
    finite positive ``a``, correctly rounded, half to even, as ``%.17e``
    gives them: a = D * 10**(e - 16) to within half a unit of D.

    e is floor(log10 a), moved by one where ``a`` falls below or reaches a
    threshold T of ``_decade``.  With s = a * 2**t exact, D rounds
    a * 10**(16 - e) = s*H + s*L, where s*H is Dekker's error-free
    product P + E (P an even integer, as it passes 2**53) and s*L is off
    by less than 1e-14.  Where L = 0 the sum is exact and ``rint`` rounds
    half to even; elsewhere a fraction within 1e-9 of one half, a tie
    such as 3 * 2**-24's or a near one, is settled by ``_exact_digits``.
    A D of 10**17 becomes 10**16 at the next exponent."""
    e = np.floor(np.log10(a)).astype(np.int64)
    lo = int(e.min()) - 1
    T, H, Hh, Hl, L, t = np.array([_decade(d) for d in range(lo, int(e.max()) + 2)]).T
    k = e - lo
    k += (a >= T[k + 1]).view(np.int8) - (a < T[k]).view(np.int8)
    e = k + lo
    s = np.ldexp(a, t.astype(np.int64)[k])
    c = _SPLIT * s
    sh = c - (c - s)
    sl = s - sh
    hh, hl, l = Hh[k], Hl[k], L[k]
    P = s * H[k]
    f = (((sh * hh - P) + sh * hl + sl * hh) + sl * hl) + s * l
    r = np.rint(f)
    D = P.astype(np.int64) + r.astype(np.int64)
    for i in np.flatnonzero(np.abs(f - r) > 0.5 - 1e-9):
        if l[i]:
            D[i] = _exact_digits(float(a[i]), int(e[i]))
    carry = D == 10**17
    D[carry] = 10**16
    return D, e + carry


@functools.cache
def _digit_groups():
    """The ASCII of 0000 ... 9999, each as one uint32."""
    groups = np.array([b"%04d" % g for g in range(10000)]).view(np.uint32)
    groups.flags.writeable = False
    return groups


def _csv_chunk(x, ends):
    """The CSV bytes of the values ``x``, each followed by ``os.linesep``
    where ``ends`` is true and by a comma elsewhere: every value as
    ``'%.17g' % v`` writes it.

    Each value fills fixed slots of a uint8 array (see ``_PREFIX`` ...),
    0 in a slot it does not use, and the zeros are deleted at the end.
    The 17 digits of ``_digits`` are written with 4-digit groups; the
    point follows digit e for e in [0, 15], and trailing zeros after the
    point are dropped with the point itself where none is left, as ``%g``
    does.  Decimal exponents in [-4, 16] are written without "e"."""
    n = x.size
    sep = os.linesep.encode()
    ordinary = np.isfinite(x) & (x != 0)
    a = np.where(ordinary, np.abs(x), 1.0)
    D, e = _digits(a)
    hi, lo = np.divmod(D, 10**8)
    hi, lo = hi.astype(np.uint32), lo.astype(np.uint32)
    g = np.empty((n, 5), np.uint32)
    g[:, 0], rest = np.divmod(hi, 10**8)
    g[:, 1], g[:, 2] = np.divmod(rest, 10**4)
    g[:, 3], g[:, 4] = np.divmod(lo, 10**4)
    digits = _digit_groups()[g].view(np.uint8).reshape(n, 20)[:, 3:]
    significant = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    fixed = (e >= -4) & (e < 17)
    whole = np.where(fixed, e, 0)  # index of the last digit before the point
    slots = np.zeros((n, _SEP + len(sep)), np.uint8)
    slots[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    pairs = slots[:, _BODY:_EXP].reshape(n, 17, 2)
    column = np.arange(17, dtype=np.uint8)
    shown = np.maximum(significant, whole + 1).astype(np.uint8)
    pairs[:, :, 0] = digits * (column < shown[:, None])
    point = np.where((significant > whole + 1) & (whole >= 0), whole, 17).astype(np.uint8)
    pairs[:, :, 1] = (column == point[:, None]) * np.uint8(ord("."))
    small = fixed & (e < 0)
    if small.any():
        for i, char in enumerate(b"0.000"):
            slots[:, _PREFIX + i] = (small & (e < 1 - i)) * np.uint8(char)
    scientific = ~fixed
    if scientific.any():
        size = np.abs(e)
        slots[:, _EXP] = scientific * ord("e")
        slots[:, _EXP + 1] = scientific * np.where(e < 0, ord("-"), ord("+"))
        slots[:, _EXP + 2] = (scientific & (size >= 100)) * (ord("0") + size // 100)
        slots[:, _EXP + 3] = scientific * (ord("0") + size // 10 % 10)
        slots[:, _EXP + 4] = scientific * (ord("0") + size % 10)
    if not ordinary.all():
        slots[~ordinary, _PREFIX:_SEP] = 0
        slots[x == 0, _BODY] = ord("0")
        nan = np.isnan(x)
        slots[nan, 0] = 0
        slots[nan, _BODY:_BODY + 6:2] = np.frombuffer(b"nan", np.uint8)
        slots[np.isinf(x), _BODY:_BODY + 6:2] = np.frombuffer(b"inf", np.uint8)
    slots[:, _SEP] = ord(",")
    slots[ends, _SEP:] = np.frombuffer(sep, np.uint8)
    return slots.tobytes().translate(None, b"\0")


def _csv_chunks(M):
    """The bytes of the rows of the 2-d float64 ``M`` as ``save_matrix``
    writes them, ``','.join('%.17g' % v for v in row) + os.linesep`` each,
    in pieces of at most ``_CHUNK`` values."""
    rows, cols = M.shape
    if not cols:
        yield os.linesep.encode() * rows
        return
    x = M.reshape(-1)
    for start in range(0, x.size, _CHUNK):
        piece = x[start:start + _CHUNK]
        yield _csv_chunk(piece, np.arange(start + 1, start + 1 + piece.size) % cols == 0)


def save_matrix(M, path):
    """Write a matrix as CSV with 17 significant digits (lossless for
    IEEE doubles), in the platform's line endings, as text mode writes.

    Removes the binary and reduction twins of the CSV's earlier contents,
    then writes the twin of the new bytes when ``M`` is nonempty and
    finite (see the module docstring); a twin that cannot be written is
    left out and the CSV still stands.  An ``M`` of more than two
    dimensions raises ``ContractViolation`` before any file is touched."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise ContractViolation(f"a CSV holds a 2-d matrix, got shape {M.shape}")
    path = os.fspath(path)
    for pattern in (_TWIN_PATTERN, _REDUCTION_PATTERN):
        for old in glob.glob(glob.escape(path) + pattern):
            with contextlib.suppress(OSError):
                os.remove(old)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in _csv_chunks(M):
            digest.update(chunk)
            fh.write(chunk)
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
