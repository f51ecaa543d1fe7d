import hashlib
import math
import os
import warnings

import numpy as np
import pytest

from occakit import (
    ContractViolation,
    ParseError,
    SyntheticSpec,
    center,
    gen_synthetic,
    load_matrix,
    save_matrix,
)
from occakit import data as data_module
from occakit.data import read_report, write_report


class TestCenter:
    def test_already_centered_unchanged(self):
        rng = np.random.default_rng(0)
        S = rng.standard_normal((4, 20))
        S -= S.mean(axis=1, keepdims=True)
        assert np.allclose(center(S), S, atol=1e-15)

    def test_constant_row_becomes_zero(self):
        S = np.array([[3.0, 3.0, 3.0], [1.0, 2.0, 3.0]])
        out = center(S)
        assert np.allclose(out[0], 0.0)

    def test_row_means_vanish(self):
        rng = np.random.default_rng(1)
        S = 100.0 * rng.standard_normal((6, 500)) + 37.0
        out = center(S)
        assert np.max(np.abs(out.mean(axis=1))) <= 1e-12 * np.max(np.abs(S))


class TestGenSynthetic:
    def test_latent_dimensions(self):
        spec = SyntheticSpec(m=1000, n=1000, q=5)
        assert spec.d_z == 500
        assert spec.d_w == 400

    def test_shapes(self):
        sx, sy = gen_synthetic(SyntheticSpec(m=7, n=5, q=40, seed=3))
        assert sx.shape == (7, 40)
        assert sy.shape == (5, 40)

    def test_noiseless_rank_bound(self):
        spec = SyntheticSpec(m=50, n=50, q=500, lam=0.0, seed=4)
        sx, _ = gen_synthetic(spec)
        assert spec.d_z + spec.d_w == 45
        assert np.linalg.matrix_rank(sx) <= 45

    def test_deterministic_per_seed(self):
        a = gen_synthetic(SyntheticSpec(m=6, n=4, q=30, seed=11))
        b = gen_synthetic(SyntheticSpec(m=6, n=4, q=30, seed=11))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = gen_synthetic(SyntheticSpec(m=6, n=4, q=30, seed=12))
        assert not np.array_equal(a[0], c[0])

    def test_shared_latent_dominates(self):
        # sanity gate: with the default tiny noise the top canonical
        # correlation is essentially 1
        from occakit import build_two_view, classical_cca

        sx, sy = gen_synthetic(SyntheticSpec(m=12, n=10, q=300, seed=5))
        prob = build_two_view(center(sx), center(sy))
        _, _, corr = classical_cca(prob, k=1)
        assert corr[0] > 0.99

    def test_validation(self):
        with pytest.raises(ContractViolation):
            SyntheticSpec(m=0, n=3, q=5)
        with pytest.raises(ContractViolation):
            SyntheticSpec(m=1, n=1, q=1, lam=-1.0)
        for bad in ({"m": 2.5}, {"q": 10.5}, {"seed": 1.5}, {"m": True}):
            with pytest.raises(ContractViolation, match=next(iter(bad))):
                SyntheticSpec(**{"m": 2, "n": 3, "q": 5, **bad})

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_noise_scale_rejected(self, lam):
        with pytest.raises(ContractViolation, match="lam"):
            SyntheticSpec(m=2, n=2, q=3, lam=lam)

    def test_single_sample_rejected(self):
        # centering one sample leaves both views identically zero
        with pytest.raises(ContractViolation, match="q must be >= 2"):
            SyntheticSpec(m=3, n=2, q=1)
        with pytest.raises(ContractViolation, match="lam"):
            SyntheticSpec(m=1, n=1, q=2, lam=-1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractViolation, match="seed"):
            SyntheticSpec(m=2, n=2, q=3, seed=-1)

    @pytest.mark.slow
    def test_full_benchmark_scale(self):
        # the generator must support the full benchmark size even though
        # routine suites run far smaller
        spec = SyntheticSpec(m=1000, n=1000, q=10_000, seed=99)
        sx, sy = gen_synthetic(spec)
        assert sx.shape == (1000, 10_000)
        assert sy.shape == (1000, 10_000)
        assert spec.d_z == 500 and spec.d_w == 400


class TestMatrixIo:
    def test_small_literal(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n")
        M = load_matrix(p)
        assert np.array_equal(M, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert exc.value.line == 2

    def test_bad_token_reports_position(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,x\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert (exc.value.line, exc.value.column) == (2, 2)

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_token_reports_position(self, tmp_path, token):
        p = tmp_path / "m.csv"
        p.write_text(f"h,h\n1,2\n3,{token}\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(p, header=True)
        assert (exc.value.line, exc.value.column) == (3, 2)
        assert token in str(exc.value)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_header_skip(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1,2\n")
        M = load_matrix(p, header=True)
        assert np.array_equal(M, [[1.0, 2.0]])

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((10, 10))
        p = tmp_path / "m.csv"
        save_matrix(M, p)
        assert np.array_equal(load_matrix(p), M)

    def test_round_trip_extremes(self, tmp_path):
        M = np.array([[1e-308, -1e300, 0.0, np.pi]])
        p = tmp_path / "m.csv"
        save_matrix(M, p)
        assert np.array_equal(load_matrix(p), M)

    @pytest.mark.parametrize(
        ("text", "header", "line", "column", "message"),
        [
            pytest.param("1,2\n\n3,4\n", False, 2, None, "ragged row", id="blank-line"),
            pytest.param("1,2\n \t\n3,4\n", False, 2, None, "ragged row", id="whitespace-line"),
            pytest.param("1\n  \n3\n", False, 2, 1, "non-numeric token ''", id="whitespace-cell"),
            pytest.param("1,,2\n", False, 1, 2, "non-numeric token ''", id="empty-cell"),
            pytest.param("1,2\n# comment\n3,4\n", False, 2, None, "ragged row", id="comment-row"),
            pytest.param('1,2\n3,"1"\n', False, 2, 2, """non-numeric token '"1"'""", id="quoted"),
            pytest.param("1,2\n0x10,4\n", False, 2, 1, "non-numeric token '0x10'", id="hex"),
            pytest.param("a,b\n1,2\n3\n", True, 3, None, "ragged row", id="ragged-after-header"),
            pytest.param("1,2\n3,4\n\n\n", False, 3, None, "ragged row", id="two-trailing-empty"),
            pytest.param("1,2\n3,1_0\n", False, 2, 2, "non-numeric token '1_0'", id="underscore"),
            pytest.param("1,2\n\u0661,4\n", False, 2, 1, "non-numeric token", id="arabic-digit"),
        ],
    )
    def test_rejected_token_grammar_reports_position(
        self, tmp_path, text, header, line, column, message
    ):
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(ParseError) as exc:
            load_matrix(p, header=header)
        assert type(exc.value) is ParseError
        assert (exc.value.line, exc.value.column) == (line, column)
        assert message in str(exc.value) and str(p) in str(exc.value)

    @pytest.mark.parametrize(
        ("raw", "header", "line", "column", "byte"),
        [
            pytest.param(b"1,2\n3,\xff\n", False, 2, 2, "0xff", id="second-field"),
            pytest.param(b"\xef\xbb\xbf1,2\r\n3,4,\xc3", False, 2, 3, "0xc3", id="bom-crlf-truncated"),
            pytest.param(b"\xef\xbb\xbf\xff", False, 1, 1, "0xff", id="right-after-bom"),
            pytest.param(b"1,2\r3,\x80", False, 2, 2, "0x80", id="cr-line-break"),
            pytest.param(b"a,\xfe\n1,2\n", True, 1, 2, "0xfe", id="in-header"),
        ],
    )
    def test_undecodable_byte_reports_position(self, tmp_path, raw, header, line, column, byte):
        p = tmp_path / "m.csv"
        p.write_bytes(raw)
        with pytest.raises(ParseError) as exc:
            load_matrix(p, header=header)
        assert type(exc.value) is ParseError
        assert (exc.value.line, exc.value.column) == (line, column)
        assert f"invalid UTF-8 byte {byte}" in str(exc.value) and str(p) in str(exc.value)

    @pytest.mark.parametrize("fault", ["raises", "drops-a-row"])
    def test_fast_parse_refusal_never_lets_a_file_through(self, tmp_path, monkeypatch, fault):
        parse = data_module._parse

        def refusing(lines):
            if len(lines) == 1:
                return parse(lines)
            if fault == "raises":
                raise ValueError("refused")
            return parse(lines)[:-1]

        monkeypatch.setattr(data_module, "_parse", refusing)
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert str(p) in str(exc.value) and exc.value.line is None

    def test_one_trailing_empty_line_loads(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n\n")
        assert np.array_equal(load_matrix(p), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("header", [False, True])
    def test_byte_order_mark_and_crlf(self, tmp_path, header):
        p = tmp_path / "m.csv"
        p.write_bytes(b"\xef\xbb\xbf" + (b"a,b\r\n" if header else b"") + b"1,2\r\n3,4\r\n")
        assert np.array_equal(load_matrix(p, header=header), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        ("text", "header"),
        [("", False), ("a,b\n", True), ("\n", False)],
        ids=["empty", "header-only", "newline-only"],
    )
    def test_degenerate_file_is_empty_without_warning(self, tmp_path, text, header):
        p = tmp_path / "m.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="empty file"):
                load_matrix(p, header=header)

    def test_writer_literal_bytes(self, tmp_path):
        p = tmp_path / "m.csv"
        save_matrix(np.array([[-0.0, 5e-324, 0.1, 1e308, 3.0, -1.5e-7]]), p)
        assert p.read_bytes() == (
            b"-0,4.9406564584124654e-324,0.10000000000000001,1e+308,3,-1.4999999999999999e-07\n"
        )

    @pytest.mark.parametrize("shape", [(50, 40), (1, 17), (17, 1)], ids=["50x40", "1x17", "17x1"])
    def test_writer_matches_per_element_format(self, tmp_path, shape):
        M = np.random.default_rng(8).standard_normal(shape) * 10.0 ** np.arange(shape[1])
        p = tmp_path / "m.csv"
        save_matrix(M, p)
        expected = "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in M)
        assert p.read_bytes() == expected.encode("utf-8")
        by_float = [[float(tok) for tok in line.split(",")] for line in expected.splitlines()]
        assert np.array_equal(load_matrix(p), by_float) and np.array_equal(by_float, M)


def _per_element(M):
    """The CSV bytes of ``M`` by one ``%.17g`` per element, the format
    ``save_matrix`` writes."""
    return "".join(",".join(f"{x:.17g}" for x in row) + os.linesep for row in M.tolist()).encode()


def _near_ties():
    """Doubles whose 17 digits round a value within 1e-9 of a tie where
    10**(16 - e) is not exact in binary, so exact arithmetic settles them:
    x * 1e23 = M * 5**23 / 2**m with fraction 1/2 + 2**-50 (m = 50) and
    1/2 - 2**-51 (m = 51), x near 5e-7 and 3e-7 (the scaled product alone
    rounds the second the wrong way); x / 1e13 with fraction
    1/2 +- 2**12 / 1e13, x near 1.6e29; and the true tie 3 * 2**-24, whose
    x * 1e23 is 3 * 5**23 / 2."""
    ties = []
    for m, sign in ((50, 1), (51, -1)):
        M = (2 ** (m - 1) + sign) * pow(5**23, -1, 2**m) % 2**m
        M += (2**52 - M + 2**m - 1) // 2**m * 2**m
        ties.append(math.ldexp(M, -23 - m))
    for sign in (1, -1):
        M = (5**13 + sign) // 2 * pow(2**32, -1, 5**13) % 5**13
        M += (2**52 - M + 5**13 - 1) // 5**13 * 5**13
        ties.append(float(M << 45))
    return ties + [3 * 2.0**-24]


class TestWriterBytes:
    """``save_matrix`` writes the bytes of one ``%.17g`` per element, whatever
    the values; ``_per_element`` is the reference."""

    def _saved(self, tmp_path, M):
        p = tmp_path / "m.csv"
        save_matrix(M, p)
        return p.read_bytes()

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(11).integers(0, 2**64, 40_000, dtype=np.uint64)
        values = bits.view(np.float64)
        M = values[np.isfinite(values)][:39_000].reshape(78, 500)
        assert self._saved(tmp_path, M) == _per_element(M)

    def test_magnitudes_from_1e_minus_300_to_1e300(self, tmp_path):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((60, 500)) * 10.0 ** rng.uniform(-300, 300, (60, 500))
        assert self._saved(tmp_path, M) == _per_element(M)

    def test_ties_powers_of_ten_and_extremes(self, tmp_path, monkeypatch):
        # 1234567890123456.25 and .75 are true ties, rounded half to even
        special = [1234567890123456.25, 1234567890123456.75, 5e-324, 1.7976931348623157e308,
                   0.0, -0.0, np.nan, np.inf, -np.inf]
        powers = [10.0**p for p in range(-323, 309)]
        nearby = [np.nextafter(x, toward) for x in powers for toward in (0.0, np.inf)]
        values = np.array(special + powers + nearby + _near_ties())
        M = np.concatenate([values, -values]).reshape(-1, 2)
        calls = []
        exact = data_module._exact_digits
        monkeypatch.setattr(data_module, "_exact_digits", lambda *a: calls.append(a) or exact(*a))
        assert self._saved(tmp_path, M) == _per_element(M)
        # each of them, of either sign, is settled by the exact rule
        assert len(calls) == 2 * len(_near_ties())

    @pytest.mark.parametrize("shape", [(1, 0), (0, 3), (1, 1), (17, 1)],
                             ids=["1x0", "0x3", "1x1", "17x1"])
    def test_shapes(self, tmp_path, shape):
        M = np.random.default_rng(13).standard_normal(shape)
        assert self._saved(tmp_path, M) == _per_element(M)

    def test_ordinary_data_at_any_scale_never_takes_the_exact_rule(self, tmp_path, monkeypatch):
        calls = []
        exact = data_module._exact_digits
        monkeypatch.setattr(data_module, "_exact_digits", lambda *a: calls.append(a) or exact(*a))
        S, _ = gen_synthetic(SyntheticSpec(m=50, n=40, q=400, seed=1))
        counts = {}
        for scale in (1.0, 1e-300, 1e300):
            before = len(calls)
            assert self._saved(tmp_path, scale * S) == _per_element(scale * S)
            counts[scale] = len(calls) - before
        assert counts == {1.0: 0, 1e-300: 0, 1e300: 0}


class TestReports:
    def test_round_trip_and_keys(self, tmp_path):
        payload = {
            "schema_version": 1,
            "solver": "occa",
            "k": 3,
            "objective_trace": [0.1, 0.5],
            "grad_norms": [1e-9],
            "gaps": [],
            "iterations": 2,
            "termination_reason": "grad_tol",
            "wall_time_seconds": 0.25,
            "seed": 7,
            "config": {"eps_alt": 1e-8, "center": True},
            "f_final": 0.7071,
            "rank_deficient": False,
        }
        p = tmp_path / "r.json"
        write_report(payload, p)
        assert read_report(p) == payload

    def test_serialization_deterministic(self, tmp_path):
        payload = {"solver": "x", "k": 1, "objective_trace": [1.0], "config": {"b": 2, "a": 1}}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(payload, a)
        write_report(dict(reversed(list(payload.items()))), b)
        assert a.read_bytes() == b.read_bytes()


def _twins(p):
    """The binary twins beside CSV ``p``."""
    return sorted(p.parent.glob(p.name + "." + "[0-9a-f]" * 32 + ".npy"))


def _twin_of(p):
    """The one twin of ``p``, named by the SHA-256 of its bytes."""
    (twin,) = _twins(p)
    assert twin.name == f"{p.name}.{hashlib.sha256(p.read_bytes()).hexdigest()[:32]}.npy"
    return twin


def _parsed(p):
    """``load_matrix(p)`` by the parse path alone: its twins are moved away."""
    hidden = []
    for twin in _twins(p):
        hidden.append((twin, twin.with_name(twin.name + ".away")))
        twin.rename(hidden[-1][1])
    try:
        return load_matrix(p)
    finally:
        for twin, away in hidden:
            away.rename(twin)


class TestBinaryTwin:
    EXTREMES = np.array([
        [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300],
        [-1e300, 1e-300, -1e-300, 1.7976931348623157e308, np.pi, -0.0],
    ])

    @pytest.mark.parametrize("M", [EXTREMES, EXTREMES.T, EXTREMES[:1]], ids=["2x6", "6x2", "1x6"])
    def test_twin_and_parse_agree_bit_for_bit(self, tmp_path, M):
        # the 6x2 matrix is a Fortran-ordered view; both paths return C order
        p = tmp_path / "m.csv"
        save_matrix(M, p)
        _twin_of(p)
        by_twin, by_parse = load_matrix(p), _parsed(p)
        for A in (by_twin, by_parse):
            assert A.dtype == np.float64 and A.shape == M.shape and A.flags.c_contiguous
            assert np.array_equal(A, M) and np.array_equal(np.signbit(A), np.signbit(M))
            assert np.array_equal(A.view(np.uint64), M.view(np.uint64))

    def test_twin_hit_never_parses(self, tmp_path, monkeypatch):
        M = np.random.default_rng(3).standard_normal((4, 5))
        p = tmp_path / "m.csv"
        save_matrix(M, p)

        def refusing(lines):
            raise AssertionError("parsed a file whose twin loads")

        monkeypatch.setattr(data_module, "_parse", refusing)
        assert np.array_equal(load_matrix(p), M)

    def test_csv_edited_in_place_at_the_same_length_is_parsed(self, tmp_path):
        p = tmp_path / "m.csv"
        save_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]), p)
        twin = _twin_of(p)
        p.write_bytes(p.read_bytes().replace(b"3,4", b"3,5"))
        assert twin.exists()
        assert np.array_equal(load_matrix(p), [[1.0, 2.0], [3.0, 5.0]])

    @pytest.mark.parametrize("fault", ["missing", "truncated", "header-only", "float32", "int64",
                                       "nan", "1-d", "empty", "fortran", "not-npy", "directory",
                                       "huge-header", "first-row", "last-row", "one-row-more",
                                       "reshaped"])
    def test_a_twin_that_does_not_load_or_match_falls_back_to_the_parse(self, tmp_path, monkeypatch,
                                                                         fault):
        # the last four are float64 twins rewritten as if they were the data:
        # each is bound to its CSV by its shape and its first and last rows
        M = np.random.default_rng(4).standard_normal((3, 4))
        p = tmp_path / "m.csv"
        save_matrix(M, p)
        twin = _twin_of(p)
        twin.unlink()
        if fault == "truncated":
            np.save(twin, M)
            twin.write_bytes(twin.read_bytes()[:-8])
        elif fault == "header-only":
            np.save(twin, M)
            twin.write_bytes(twin.read_bytes()[:20])
        elif fault == "not-npy":
            twin.write_bytes(b"1,2\n")
        elif fault == "directory":
            twin.mkdir()
        elif fault == "huge-header":  # numpy cannot allocate the 728 TiB it names
            with open(twin, "wb") as fh:
                header = {"descr": "<f8", "fortran_order": False, "shape": (10**7, 10**7)}
                np.lib.format.write_array_header_1_0(fh, header)
                fh.write(M.tobytes())
        elif fault != "missing":
            wrong = {"float32": (M + 1).astype(np.float32), "int64": np.ones((3, 4), np.int64),
                     "nan": np.full((3, 4), np.nan), "1-d": M.ravel() + 1,
                     "empty": np.zeros((0, 4)), "fortran": np.asfortranarray(M),
                     "first-row": M + [[1e-12], [0], [0]], "last-row": M * [[1], [1], [-1]],
                     "one-row-more": np.vstack([M, M[-1:]]), "reshaped": M.reshape(4, 3)}[fault]
            np.save(twin, wrong)
        parsed = []
        parse = data_module._parse
        monkeypatch.setattr(data_module, "_parse", lambda lines: parsed.append(1) or parse(lines))
        assert np.array_equal(load_matrix(p), M)
        assert parsed

    def test_an_empty_twin_falls_back_to_the_parse(self, tmp_path):
        # numpy raises EOFError, not ValueError, for a file with no bytes
        M = np.random.default_rng(6).standard_normal((3, 4))
        p = tmp_path / "m.csv"
        save_matrix(M, p)
        _twin_of(p).write_bytes(b"")
        assert np.array_equal(load_matrix(p), M)

    def test_a_csv_without_twins_is_not_hashed(self, tmp_path, monkeypatch):
        p = tmp_path / "m.csv"
        p.write_bytes(b"1,2\n3,4\n")
        (tmp_path / "n.csv.0123456789abcdef0123456789abcdef.npy").write_bytes(b"")

        def refusing(*args):
            raise AssertionError("hashed a file that has no twin")

        monkeypatch.setattr(data_module.hashlib, "sha256", refusing)
        assert np.array_equal(load_matrix(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_header_load_ignores_the_twin(self, tmp_path):
        p = tmp_path / "m.csv"
        save_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]), p)
        _twin_of(p)
        assert np.array_equal(load_matrix(p, header=True), [[3.0, 4.0]])

    def test_copied_csv_with_a_ragged_row_is_parsed_beside_its_old_twin(self, tmp_path):
        p, copy = tmp_path / "m.csv", tmp_path / "c.csv"
        save_matrix(np.arange(6.0).reshape(3, 2), p)
        twin = _twin_of(p)
        copy.write_bytes(p.read_bytes() + b"7\n")
        twin.with_name(twin.name.replace("m.csv", "c.csv")).write_bytes(twin.read_bytes())
        with pytest.raises(ParseError) as exc:
            load_matrix(copy)
        assert (exc.value.line, exc.value.column) == (4, None) and str(copy) in str(exc.value)

    @pytest.mark.parametrize(
        ("M", "line", "column", "message"),
        [
            pytest.param([[1.0, 2.0], [3.0, np.nan]], 2, 2, "non-finite value 'nan'", id="nan"),
            pytest.param([[1.0, -np.inf]], 1, 2, "non-finite value '-inf'", id="inf"),
            pytest.param(np.zeros((0, 3)), 1, None, "empty file", id="no-rows"),
            pytest.param(np.zeros((2, 0)), 1, 1, "non-numeric token ''", id="no-columns"),
        ],
    )
    def test_no_twin_for_a_non_finite_or_empty_matrix(self, tmp_path, M, line, column, message):
        p = tmp_path / "m.csv"
        save_matrix(M, p)
        assert not _twins(p)
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert (exc.value.line, exc.value.column) == (line, column) and message in str(exc.value)

    def test_rewriting_a_csv_removes_its_stale_twin(self, tmp_path):
        p, other = tmp_path / "m.csv", tmp_path / "m.csv.x.csv"
        save_matrix(np.ones((2, 2)), p)
        save_matrix(np.ones((2, 2)), other)
        stale, kept = _twin_of(p), _twin_of(other)
        save_matrix(2.0 * np.ones((2, 2)), p)
        assert not stale.exists() and _twin_of(p) != stale and kept.exists()
        save_matrix([[np.nan]], p)
        assert not _twins(p) and kept.exists()

    def test_an_array_of_three_dimensions_is_refused_before_any_file_changes(self, tmp_path):
        p = tmp_path / "m.csv"
        save_matrix(np.arange(6.0).reshape(2, 3), p)
        before, twin = p.read_bytes(), _twin_of(p)
        twin_bytes = twin.read_bytes()
        with pytest.raises(ContractViolation, match="2-d"):
            save_matrix(np.ones((2, 2, 2)), p)
        assert p.read_bytes() == before
        assert _twin_of(p) == twin and twin.read_bytes() == twin_bytes

    @pytest.mark.parametrize("failing", ["save", "replace"])
    def test_a_failed_twin_write_leaves_the_csv_and_no_twin(self, tmp_path, monkeypatch, failing):
        def fail(*args, **kwargs):
            if failing == "save":
                args[0].write(b"\x93NUMPY")  # a partial twin
            raise OSError("disk full")

        monkeypatch.setattr(np if failing == "save" else data_module.os, failing, fail)
        M = np.random.default_rng(5).standard_normal((3, 2))
        p = tmp_path / "m.csv"
        save_matrix(M, p)
        monkeypatch.undo()
        assert [f.name for f in tmp_path.iterdir()] == ["m.csv"]
        assert np.array_equal(load_matrix(p), M)


def _reductions(p):
    """The reduction twins beside CSV ``p``."""
    return sorted(p.parent.glob(p.name + "." + "[0-9a-f]" * 32 + ".svd.npy"))


class TestReductionTwin:
    """A view's thin-SVD factors, kept beside the CSV occakit wrote and
    bound to the view's shape and bytes."""

    @staticmethod
    def saved_view(tmp_path, shape=(6, 9), seed=8):
        p = tmp_path / "v.csv"
        save_matrix(np.random.default_rng(seed).standard_normal(shape), p)
        return p, center(load_matrix(p))

    def test_factors_come_back_bit_for_bit_in_the_reduction_layout(self, tmp_path):
        from occakit.multiset import reduce_views

        p, S = self.saved_view(tmp_path)
        (rv,) = reduce_views([S])
        data_module.write_reduction(p, S, rv.U, rv.sigma, rv.V)
        (twin,) = _reductions(p)
        digest = hashlib.sha256(b"6,9;" + S.tobytes()).hexdigest()[:32]
        assert twin.name == f"v.csv.{digest}.svd.npy"
        U, sigma, V = data_module.read_reduction(p, S)
        for got, want in ((U, rv.U), (sigma, rv.sigma), (V, rv.V), (V.T, rv.V.T)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous == want.flags.c_contiguous
            assert got.flags.f_contiguous == want.flags.f_contiguous
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # another view of the CSV, and a CSV without twins, read nothing
        assert data_module.read_reduction(p, S[:, ::-1].copy()) is None
        assert data_module.read_reduction(tmp_path / "none.csv", S) is None

    def test_written_only_beside_a_csv_with_a_binary_twin(self, tmp_path):
        S = center(np.random.default_rng(9).standard_normal((3, 7)))
        p = tmp_path / "plain.csv"
        np.savetxt(p, S, delimiter=",", fmt="%.17g")
        data_module.write_reduction(p, S, np.eye(3), np.ones(3), np.zeros((7, 3)))
        assert [f.name for f in tmp_path.iterdir()] == ["plain.csv"]

    def test_rewriting_a_csv_removes_its_reduction_twins(self, tmp_path):
        from occakit.multiset import reduce_views

        p, S = self.saved_view(tmp_path)
        other, T = tmp_path / "v.csv.x.csv", S.copy()
        save_matrix(S, other)
        for path, view in ((p, S), (p, 2.0 * S), (other, T)):
            (rv,) = reduce_views([view])
            data_module.write_reduction(path, view, rv.U, rv.sigma, rv.V)
        assert len(_reductions(p)) == 2 and len(_reductions(other)) == 1
        save_matrix(S, p)
        assert not _reductions(p) and len(_reductions(other)) == 1
        assert data_module.read_reduction(p, S) is None
