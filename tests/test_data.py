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
