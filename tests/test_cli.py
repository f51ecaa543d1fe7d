import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import occakit
from occakit import AltConfig, OmccaConfig, ScfConfig, SyntheticSpec, load_matrix, save_matrix
from occakit import multiset, weighting
from occakit.cli import build_parser, main
from occakit.data import read_report

from cases import rank_tail_views


def run(*argv):
    return main([str(a) for a in argv])


def gen_pair(tmp_path, m=10, n=8, q=60, seed=7):
    prefix = tmp_path / "data"
    assert run("gen", "--m", m, "--n", n, "--q", q, "--seed", seed, "--out", prefix) == 0
    return f"{prefix}_x.csv", f"{prefix}_y.csv"


def mask_wall_time(path):
    r = read_report(path)
    r["wall_time_seconds"] = 0.0
    return json.dumps(r, sort_keys=True)


class TestGen:
    def test_shapes(self, tmp_path):
        x, y = gen_pair(tmp_path, m=20, n=15, q=200)
        assert load_matrix(x).shape == (20, 200)
        assert load_matrix(y).shape == (15, 200)

    def test_byte_identical_reruns(self, tmp_path):
        p1 = tmp_path / "a"
        p2 = tmp_path / "b"
        for p in (p1, p2):
            assert run("gen", "--m", 6, "--n", 5, "--q", 30, "--seed", 3, "--out", p) == 0
        assert (tmp_path / "a_x.csv").read_bytes() == (tmp_path / "b_x.csv").read_bytes()
        assert (tmp_path / "a_y.csv").read_bytes() == (tmp_path / "b_y.csv").read_bytes()

    def test_latent_dims_logged(self, tmp_path, capsys):
        assert run("gen", "--m", 1000, "--n", 1000, "--q", 5, "--seed", 1,
                   "--out", tmp_path / "p") == 0
        out = capsys.readouterr().out
        assert "d_z=500" in out and "d_w=400" in out

    def test_unwritable_path(self, tmp_path):
        assert run("gen", "--m", 2, "--n", 2, "--q", 3, "--seed", 0,
                   "--out", tmp_path / "no" / "such" / "dir" / "p") == 2

    @pytest.mark.parametrize(
        "option, field", [(("--seed", "-1"), "seed"), (("--lam", "nan"), "lam"),
                          (("--lam", "inf"), "lam"), (("--lam", "1e308"), "lam")]
    )
    def test_bad_spec_is_domain_error_and_writes_nothing(self, tmp_path, capsys, option, field):
        assert run("gen", "--m", 2, "--n", 2, "--q", 3, *option, "--out", tmp_path / "p") == 4
        assert field in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_single_sample_is_domain_error_and_writes_nothing(self, tmp_path, capsys):
        # centering one sample would leave both views identically zero
        assert run("gen", "--m", 3, "--n", 2, "--q", 1, "--out", tmp_path / "q1") == 4
        assert "q must be >= 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestOcca:
    def test_identical_views_unit_correlation(self, tmp_path):
        x, _ = gen_pair(tmp_path)
        out = tmp_path / "run"
        assert run("occa", "--x", x, "--y", x, "--k", 1, "--out", out) == 0
        rep = read_report(f"{out}_report.json")
        assert rep["f_final"] == pytest.approx(1.0, abs=1e-8)
        assert rep["solver"] == "occa"

    def test_monotone_objective_trace_in_report(self, tmp_path):
        x, y = gen_pair(tmp_path)
        out = tmp_path / "run"
        code = run("occa", "--x", x, "--y", y, "--k", 3, "--out", out)
        assert code in (0, 3)
        tr = np.array(read_report(f"{out}_report.json")["objective_trace"])
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))

    def test_rank_taken_from_singular_values(self, tmp_path):
        # the covariance eigenvalues 1e-18 and 1e-20 of view 1 are below
        # max(n, q) eps of the largest, its singular values are not
        x, y = save_rank_tail_views(tmp_path)
        assert run("occa", "--x", x, "--y", y, "--k", 3, "--out", tmp_path / "o") in (0, 3)

    def test_missing_file(self, tmp_path):
        assert run("occa", "--x", tmp_path / "nope.csv", "--y", tmp_path / "nope.csv",
                   "--k", 1, "--out", tmp_path / "o") == 2

    def test_domain_error_exit_code(self, tmp_path):
        x, y = gen_pair(tmp_path, m=4, n=3, q=20)
        assert run("occa", "--x", x, "--y", y, "--k", 3, "--out", tmp_path / "o") == 4

    def test_fewer_samples_than_features(self, tmp_path):
        x, y = gen_pair(tmp_path, m=30, n=25, q=12, seed=4)
        out = tmp_path / "run"
        assert run("occa", "--x", x, "--y", y, "--k", 3, "--out", out) in (0, 3)
        X = load_matrix(f"{out}_x_proj.csv")
        assert np.max(np.abs(X.T @ X - np.eye(3))) <= 1e-10

    def test_non_finite_token_is_parse_error(self, tmp_path, capsys):
        x, y = gen_pair(tmp_path, m=4, n=3, q=10)
        M = load_matrix(x)
        M[1, 2] = np.nan
        save_matrix(M, x)
        assert run("occa", "--x", x, "--y", y, "--k", 1, "--out", tmp_path / "o") == 2
        assert f"{x}:2:3" in capsys.readouterr().err

    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys):
        x, y = gen_pair(tmp_path, m=4, n=3, q=10)
        Path(x).write_bytes(b"1,2\n3,\xff\n")
        assert run("occa", "--x", x, "--y", y, "--k", 1, "--out", tmp_path / "o") == 2
        assert f"{x}:2:2: invalid UTF-8 byte 0xff" in capsys.readouterr().err

    def test_no_center_flag_enforces_centering_contract(self, tmp_path):
        # generator output is uncentered, so skipping the centering step
        # must trip the solver's centered-input check
        x, y = gen_pair(tmp_path, m=6, n=5, q=40)
        assert run("occa", "--x", x, "--y", y, "--k", 1, "--no-center",
                   "--out", tmp_path / "o") == 4

    def test_projections_reload_orthonormal(self, tmp_path):
        x, y = gen_pair(tmp_path)
        out = tmp_path / "run"
        # nearly noiseless views make the outer loop crawl; hitting the
        # cap still writes a valid solution and signals exit 3
        assert run("occa", "--x", x, "--y", y, "--k", 2, "--out", out) in (0, 3)
        X = load_matrix(f"{out}_x_proj.csv")
        assert np.max(np.abs(X.T @ X - np.eye(2))) <= 1e-9


class TestOmcca:
    def test_top1_single_selected_weight(self, tmp_path):
        x, y = gen_pair(tmp_path, m=8, n=7, q=50)
        out = tmp_path / "run"
        assert run("omcca", "--views", x, y, "--k", 1, "--weights", "top:1",
                   "--out", out) in (0, 3)
        rep = read_report(f"{out}_report.json")
        W = np.array(rep["weight_matrix"])
        nonzero_pairs = [(i, j) for i in range(2) for j in range(i + 1, 2) if W[i, j] != 0]
        assert len(nonzero_pairs) == 1

    def test_config_echoes_inner_settings(self, tmp_path):
        x, y = gen_pair(tmp_path, m=8, n=7, q=50)
        out = tmp_path / "run"
        assert run("omcca", "--views", x, y, "--k", 1, "--eps-scf", 1e-7,
                   "--max-iter-scf", 12, "--out", out) in (0, 3)
        config = read_report(f"{out}_report.json")["config"]
        assert config["eps_scf"] == 1e-7 and config["max_iter_scf"] == 12

    @pytest.mark.parametrize("weights, n_views, products", [("uniform", 2, 1), ("tree", 3, 3)])
    def test_each_pair_product_is_formed_once(self, tmp_path, monkeypatch, weights, n_views,
                                              products):
        # the report's rho_hat reads every pair's V_i^T V_j and the solve
        # the selected pairs'; both scale the one product of a pair
        x, y = gen_pair(tmp_path, m=8, n=7, q=50)
        z = tmp_path / "z.csv"
        save_matrix(load_matrix(x)[:5] + load_matrix(y)[:5], z)
        formed = []
        product = multiset._product
        monkeypatch.setattr(multiset, "_product", lambda *a: formed.append(a[1:]) or product(*a))
        views = [x, y, z][:n_views]
        assert run("omcca", "--views", *views, "--k", 1, "--weights", weights,
                   "--out", tmp_path / "run") in (0, 3)
        assert len(formed) == len(set(formed)) == products

    def test_k_equal_to_rank_names_view(self, tmp_path, capsys):
        # 6 samples, centered: both views have rank 5
        x, y = gen_pair(tmp_path, m=12, n=10, q=6, seed=3)
        assert run("omcca", "--views", x, y, "--k", 5, "--out", tmp_path / "run") == 4
        assert "rank 5 of view 0" in capsys.readouterr().err

    def test_top1_three_views_isolates_one(self, tmp_path):
        # a top-1 selection over three views necessarily leaves one view
        # with no edges; that is a domain error, not a silent solve
        x, y = gen_pair(tmp_path, m=8, n=7, q=50)
        z = tmp_path / "z.csv"
        save_matrix(load_matrix(x)[:5] + load_matrix(y)[:5], z)
        assert run("omcca", "--views", x, y, z, "--k", 1, "--weights", "top:1",
                   "--out", tmp_path / "run") == 4

    def test_constant_view_named_by_file(self, tmp_path, capsys):
        x, y = gen_pair(tmp_path, m=8, n=7, q=50)
        z = tmp_path / "z.csv"
        save_matrix(np.full((3, 50), 2.5), z)  # all zero after centering
        assert run("omcca", "--views", x, z, y, "--k", 1, "--out", tmp_path / "run") == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {z}: ")
        assert "identically zero" in err

    def test_rank_deficient_view_named_by_file(self, tmp_path, capsys):
        x, y = gen_pair(tmp_path, m=8, n=7, q=50)
        b = tmp_path / "b.csv"
        rng = np.random.default_rng(4)
        save_matrix(np.outer(rng.standard_normal(4), rng.standard_normal(50)), b)  # rank 1
        assert run("omcca", "--views", x, y, b, "--k", 1, "--out", tmp_path / "run") == 4
        err = capsys.readouterr().err
        # the file is named; the message still counts views from 0
        assert err.startswith(f"error: {b}: ")
        assert "rank 1 of view 2" in err

    def test_isolated_view_named_by_file(self, tmp_path, capsys):
        x, y = gen_pair(tmp_path, m=8, n=7, q=50)
        z = tmp_path / "z.csv"
        save_matrix(load_matrix(x)[:5] + load_matrix(y)[:5], z)
        files = [x, y, str(z)]
        R = occakit.rho_hat_matrix([occakit.center(load_matrix(f)) for f in files])
        (i, j, _), = occakit.select_weights(R, "top:1")
        (isolated,) = {0, 1, 2} - {i, j}
        assert run("omcca", "--views", *files, "--k", 1, "--weights", "top:1",
                   "--out", tmp_path / "run") == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[isolated]}: ")
        assert f"view {isolated} has no nonzero pair weights" in err

    def test_large_negative_bandwidth_leaves_a_view_without_weight(self, tmp_path, capsys):
        # the soft-max puts all tree weight on the least similar pair; the
        # weights stay finite, so the isolated view is named, not the data
        x, y = gen_pair(tmp_path, m=12, n=10, q=80, seed=1)
        assert run("omcca", "--views", x, y, x, "--k", 2, "--weights", "tree",
                   "--bandwidth=-1e4", "--out", tmp_path / "run") == 4
        assert capsys.readouterr().err == f"error: {x}: view 2 has no nonzero pair weights\n"

    @pytest.mark.parametrize("command", ["omcca", "occa"])
    def test_no_center_uncentered_view_named_by_file(self, tmp_path, capsys, command):
        x, y = gen_pair(tmp_path, m=8, n=7, q=50)  # generator output is uncentered
        data = ("--views", x, y) if command == "omcca" else ("--x", x, "--y", y)
        assert run(command, *data, "--k", 1, "--no-center",
                   "--out", tmp_path / "run") == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {x}: ")
        assert "not centered" in err

    def test_reduces_each_view_once(self, tmp_path, monkeypatch):
        x, y = gen_pair(tmp_path, m=8, n=7, q=50)
        z = tmp_path / "z.csv"
        save_matrix(load_matrix(x)[:5] + load_matrix(y)[:5], z)
        calls = []
        reduce = occakit.multiset.reduce_views

        def counting_reduce(*args, **kwargs):
            calls.append(len(args[0]))
            return reduce(*args, **kwargs)

        monkeypatch.setattr(occakit.multiset, "reduce_views", counting_reduce)
        assert run("omcca", "--views", x, y, z, "--k", 1, "--weights", "tree",
                   "--out", tmp_path / "run") in (0, 3)
        assert calls == [3]

    def test_tree_weight_count_four_views(self, tmp_path):
        x, y = gen_pair(tmp_path, m=8, n=7, q=50)
        z = tmp_path / "z.csv"
        wv = tmp_path / "w.csv"
        save_matrix(load_matrix(x)[:5] + load_matrix(y)[:5], z)
        save_matrix(load_matrix(x)[:4] - load_matrix(y)[:4], wv)
        out = tmp_path / "run"
        assert run("omcca", "--views", x, y, z, wv, "--k", 1, "--weights", "tree",
                   "--out", out) in (0, 3)
        W = np.array(read_report(f"{out}_report.json")["weight_matrix"])
        nonzero_pairs = [(i, j) for i in range(4) for j in range(i + 1, 4) if W[i, j] != 0]
        assert len(nonzero_pairs) == 3

    def test_two_views_consistent_with_occa(self, tmp_path):
        x, y = gen_pair(tmp_path, m=9, n=7, q=50, seed=12)
        out_o = tmp_path / "occa"
        out_m = tmp_path / "omcca"
        assert run("occa", "--x", x, "--y", y, "--k", 2, "--eps-alt", 1e-12,
                   "--max-outer", 200, "--eps-scf", 1e-8, "--max-iter-scf", 100,
                   "--out", out_o) in (0, 3)
        assert run("omcca", "--views", x, y, "--k", 2, "--eps-outer", 1e-10,
                   "--max-cycles", 300, "--eps-scf", 1e-8, "--max-iter-scf", 100,
                   "--out", out_m) in (0, 3)
        # the multiset run must find the same per-pair correlation the
        # two-view solver reports (its g doubles the unordered pair)
        f_occa = read_report(f"{out_o}_report.json")["f_final"]
        g_omcca = read_report(f"{out_m}_report.json")["objective_trace"][-1]
        assert g_omcca == pytest.approx(2 * f_occa, abs=1e-5)


@pytest.mark.parametrize(
    "argv, field",
    [
        (("occa", "--eps-alt", "inf"), "eps_alt"),
        (("occa", "--eps-alt", "nan"), "eps_alt"),
        (("occa", "--eps-scf", "nan"), "eps_scf"),
        (("omcca", "--eps-outer", "nan"), "eps_outer"),
        (("omcca", "--eps-scf", "inf"), "eps_scf"),
        (("omcca", "--bandwidth", "nan"), "bandwidth"),
        (("omcca", "--bandwidth", "inf"), "bandwidth"),
        (("cca-baseline", "--rank-tol", "nan"), "rank_tol"),
        (("cca-baseline", "--rank-tol", "-1"), "rank_tol"),
        (("cca-baseline", "--rank-tol", "1"), "rank_tol"),
    ],
)
def test_bad_numeric_option_is_domain_error(tmp_path, capsys, argv, field):
    x, y = gen_pair(tmp_path, m=12, n=10, q=80, seed=1)
    command, *options = argv
    data = ("--views", x, y) if command == "omcca" else ("--x", x, "--y", y)
    assert run(command, *data, "--k", 2, *options, "--out", tmp_path / "o") == 4
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command", ["occa", "cca-baseline"])
@pytest.mark.parametrize(
    "bad_y, message",
    [
        (np.full((3, 50), 2.5), "view 1 is identically zero"),  # zero after centering
        (np.outer(np.arange(1.0, 5.0), np.sin(np.arange(50.0))), "rank 1 of view 1"),
    ],
    ids=["constant", "rank1"],
)
def test_two_view_commands_name_bad_y_file(tmp_path, capsys, command, bad_y, message):
    x, _ = gen_pair(tmp_path, m=8, n=7, q=50)
    y = tmp_path / "bad_y.csv"
    save_matrix(bad_y, y)
    assert run(command, "--x", x, "--y", y, "--k", 2, "--out", tmp_path / "o") == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {y}: ")
    assert message in err


@pytest.mark.parametrize("command", ["occa", "omcca"])
def test_scale_overflow_names_first_view_file(tmp_path, capsys, command):
    # at 1e-160 the subproblem's xi(G) is so small that 2/xi^2 overflows
    # in the solve of either command; at 1e-170 occa's partner view has a
    # projected variance that underflows to 0; from 1e155 the square of the
    # largest singular value overflows, and the data are refused before any
    # arithmetic warns
    for scale in (1e-160, 1e-170, 1e155, 1e160, 1e200):
        paths = gen_pair(tmp_path, m=20, n=15, q=300, seed=1)
        for path in paths:
            save_matrix(scale * load_matrix(path), path)
        x, y = paths
        data = ("--views", x, y) if command == "omcca" else ("--x", x, "--y", y)
        assert run(command, *data, "--k", 3, "--out", tmp_path / "o") == 4
        err = capsys.readouterr().err
        view = int(re.search(r"view (\d+) leaves floating-point range; rescale the data", err)[1])
        assert err.startswith(f"error: {paths[view]}: view {view} ")


@pytest.mark.parametrize("weights", ["tree", "top:1", "uniform"])
def test_tiny_views_solve_with_unit_free_affinities(tmp_path, weights):
    # at 1e-150 the product of the two views' powers underflows; the
    # affinities are formed on spectra rescaled by powers of two, so omcca
    # solves and reports the affinities of the unscaled data to rounding
    x, y = gen_pair(tmp_path, m=20, n=15, q=300, seed=1)
    argv = ("--k", 3, "--weights", weights)
    assert run("omcca", "--views", x, y, *argv, "--out", tmp_path / "ref") in (0, 3)
    for path in (x, y):
        save_matrix(1e-150 * load_matrix(path), path)
    assert run("omcca", "--views", x, y, *argv, "--out", tmp_path / "o") in (0, 3)
    rho_hat = read_report(tmp_path / "o_report.json")["rho_hat"]
    ref = read_report(tmp_path / "ref_report.json")["rho_hat"]
    np.testing.assert_allclose(rho_hat, ref, rtol=0, atol=1e-14)


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e200, 1e-200])
def test_evaluator_does_not_depend_on_units(tmp_path, scale):
    # the projected samples are divided by a power of two before they are
    # squared, so the same projections score the same total at any scale
    x, y = gen_pair(tmp_path, m=12, n=10, q=80, seed=1)
    assert run("occa", "--x", x, "--y", y, "--k", 2, "--out", tmp_path / "p") in (0, 3)
    proj = [tmp_path / f"p_{v}_proj.csv" for v in "xy"]
    assert run("eval", "--data", x, y, "--proj", *proj, "--out", tmp_path / "ref") == 0
    ref = read_report(tmp_path / "ref_metrics.json")["total_correlation"]
    scaled = [tmp_path / f"s_{v}.csv" for v in "xy"]
    for path, out in zip((x, y), scaled):
        save_matrix(scale * load_matrix(path), out)
    assert run("eval", "--data", *scaled, "--proj", *proj, "--out", tmp_path / "s") == 0
    assert read_report(tmp_path / "s_metrics.json")["total_correlation"] == pytest.approx(
        ref, rel=1e-12)
    prob = occakit.build_two_view(*(occakit.center(load_matrix(p)) for p in scaled))
    f = occakit.objective_f(*(load_matrix(p) for p in proj), prob)
    assert 2 * f == pytest.approx(ref, rel=1e-12)


def test_solver_flag_defaults_are_the_config_defaults():
    parse = build_parser().parse_args
    gen = parse(["gen", "--m", "2", "--n", "2", "--q", "2", "--out", "o"])
    occa = parse(["occa", "--x", "x", "--y", "y", "--k", "1", "--out", "o"])
    omcca = parse(["omcca", "--views", "x", "y", "--k", "1", "--out", "o"])
    ev = parse(["eval", "--data", "x", "y", "--proj", "p", "q", "--out", "o"])
    spec, alt, om, scf = SyntheticSpec(2, 2, 2), AltConfig(), OmccaConfig(), ScfConfig()
    assert (gen.lam, gen.seed) == (spec.lam, spec.seed)
    assert (occa.eps_alt, occa.max_outer) == (alt.eps_alt, alt.max_outer)
    assert (omcca.eps_outer, omcca.max_cycles) == (om.eps_outer, om.max_cycles)
    for args in (occa, omcca):
        assert (args.eps_scf, args.max_iter_scf) == (scf.eps_scf, scf.max_iter)
    assert omcca.bandwidth == ev.bandwidth == weighting.BANDWIDTH
    for fn in (weighting.softmax_normalize, weighting.build_weights):
        assert inspect.signature(fn).parameters["bandwidth"].default == weighting.BANDWIDTH


@pytest.mark.parametrize("command", ["omcca", "occa", "eval"])
def test_sample_count_mismatch_names_the_file(tmp_path, capsys, command):
    for prefix, q in (("d", 80), ("e", 60)):
        assert run("gen", "--m", 6, "--n", 5, "--q", q, "--out", tmp_path / prefix) == 0
    d_x, d_y, e_x, e_y = (tmp_path / f"{p}.csv" for p in ("d_x", "d_y", "e_x", "e_y"))
    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    save_matrix(np.eye(6)[:, :2], p1)
    save_matrix(np.eye(5)[:, :2], p2)
    argv, bad = {
        "omcca": (["--views", d_x, d_y, e_x, "--k", 2], e_x),
        "occa": (["--x", d_x, "--y", e_y, "--k", 2], e_y),
        "eval": (["--data", d_x, e_y, "--proj", p1, p2], e_y),
    }[command]
    assert run(command, *argv, "--out", tmp_path / "o") == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert "sample count" in err


_STAMP_KEYS = {"schema_version", "solver", "k", "seed", "config", "wall_time_seconds"}
_RUN_KEYS = _STAMP_KEYS | {"objective_trace", "grad_norms", "gaps", "iterations",
                           "termination_reason"}
_EVAL_KEYS = _STAMP_KEYS | {"rank_deficient", "orthogonalized", "total_correlation"}


@pytest.mark.parametrize(
    "command, argv, keys, config",
    [
        ("occa", ["--x", "d_x.csv", "--y", "d_y.csv", "--k", "2"],
         _RUN_KEYS | {"f_final", "xcy_min_eigs"},
         {"eps_alt", "max_outer", "eps_scf", "max_iter_scf", "center"}),
        ("omcca", ["--views", "d_x.csv", "d_y.csv", "--k", "2"],
         _RUN_KEYS | {"weight_matrix", "rho_hat", "loop_g_trace", "ds_terms_per_cycle"},
         {"scheme", "weights", "bandwidth", "eps_outer", "max_cycles", "eps_scf",
          "max_iter_scf", "center"}),
        ("cca-baseline", ["--x", "d_x.csv", "--y", "d_y.csv", "--k", "2"],
         _RUN_KEYS | {"correlations"}, {"rank_tol", "center"}),
        ("eval", ["--data", "d_x.csv", "d_y.csv", "--proj", "p_x_proj.csv", "p_y_proj.csv"],
         _EVAL_KEYS | {"f", "F"}, {"weights", "bandwidth"}),
        ("eval", ["--data", "d_x.csv", "d_y.csv", "d_x.csv",
                  "--proj", "p_x_proj.csv", "p_y_proj.csv", "p_x_proj.csv"],
         _EVAL_KEYS, {"weights", "bandwidth"}),
    ],
    ids=["occa", "omcca", "cca-baseline", "eval-two-views", "eval-three-views"],
)
def test_json_key_sets(tmp_path, monkeypatch, command, argv, keys, config):
    monkeypatch.chdir(tmp_path)
    assert run("gen", "--m", 8, "--n", 7, "--q", 50, "--out", "d") == 0
    assert run("cca-baseline", "--x", "d_x.csv", "--y", "d_y.csv", "--k", 2, "--out", "p") == 0
    assert run(command, *argv, "--seed", 9, "--out", "o") in (0, 3)
    (path,) = tmp_path.glob("o_*.json")
    assert path.name == ("o_metrics.json" if command == "eval" else "o_report.json")
    rep = read_report(path)
    assert set(rep) == keys
    assert set(rep["config"]) == config
    assert (rep["schema_version"], rep["solver"], rep["seed"]) == (1, command, 9)


def save_rank_tail_views(tmp_path):
    paths = (tmp_path / "tail_x.csv", tmp_path / "tail_y.csv")
    for S, path in zip(rank_tail_views(0), paths):
        save_matrix(S, path)
    return paths


class TestCcaBaseline:
    def test_correlations_written(self, tmp_path):
        x, y = gen_pair(tmp_path)
        out = tmp_path / "base"
        assert run("cca-baseline", "--x", x, "--y", y, "--k", 2, "--out", out) == 0
        rep = read_report(f"{out}_report.json")
        assert len(rep["correlations"]) == 2
        assert rep["correlations"][0] > 0.99  # shared latent dominates

    def test_k_below_one_is_domain_error(self, tmp_path):
        x, y = gen_pair(tmp_path)
        assert run("cca-baseline", "--x", x, "--y", y, "--k", 0, "--out", tmp_path / "b") == 4

    def test_rank_tol_is_relative_singular_value_threshold(self, tmp_path):
        # ranks 5 and 4 by default; 1e-8 sigma_1 drops the 1e-9 and 1e-10 tails
        x, y = save_rank_tail_views(tmp_path)
        out = tmp_path / "b"
        assert run("cca-baseline", "--x", x, "--y", y, "--k", 4, "--out", out) == 0
        assert run("cca-baseline", "--x", x, "--y", y, "--k", 4, "--rank-tol", "1e-8",
                   "--out", out) == 4


class TestEval:
    def test_reeval_matches_report(self, tmp_path):
        x, y = gen_pair(tmp_path)
        out = tmp_path / "run"
        assert run("occa", "--x", x, "--y", y, "--k", 2, "--out", out) in (0, 3)
        ev = tmp_path / "ev"
        assert run("eval", "--data", x, y, "--proj", f"{out}_x_proj.csv",
                   f"{out}_y_proj.csv", "--out", ev) == 0
        metrics = read_report(f"{ev}_metrics.json")
        rep = read_report(f"{out}_report.json")
        assert metrics["f"] == pytest.approx(rep["f_final"], abs=1e-12)

    def test_header_applies_to_data_not_projections(self, tmp_path):
        x, y = gen_pair(tmp_path, m=8, n=7, q=40, seed=1)
        for view in (x, y):
            body = Path(view).read_text()
            Path(view).write_text(",".join(f"s{i}" for i in range(40)) + "\n" + body)
        out = tmp_path / "run"
        assert run("occa", "--x", x, "--y", y, "--k", 2, "--header", "--out", out) in (0, 3)
        ev = tmp_path / "ev"
        assert run("eval", "--data", x, y, "--proj", f"{out}_x_proj.csv",
                   f"{out}_y_proj.csv", "--header", "--out", ev) == 0
        metrics = read_report(f"{ev}_metrics.json")
        rep = read_report(f"{out}_report.json")
        assert metrics["f"] == pytest.approx(rep["f_final"], abs=1e-12)

    def test_rank_deficient_orthogonalize_flags_zero(self, tmp_path):
        x, y = gen_pair(tmp_path, m=6, n=5, q=40)
        bad = tmp_path / "bad.csv"
        col = np.arange(6.0).reshape(-1, 1)
        save_matrix(np.hstack([col, col]), bad)  # two identical columns
        good = tmp_path / "good.csv"
        save_matrix(np.eye(5)[:, :2], good)
        ev = tmp_path / "ev"
        assert run("eval", "--data", x, y, "--proj", bad, good,
                   "--orthogonalize", "--out", ev) == 0
        metrics = read_report(f"{ev}_metrics.json")
        assert metrics["rank_deficient"] is True
        assert metrics["total_correlation"] == 0.0

    def test_rank_deficient_orthogonalize_keeps_k(self, tmp_path):
        x, y = gen_pair(tmp_path, m=5, n=5, q=40)
        bad = tmp_path / "bad.csv"
        col = np.arange(5.0).reshape(-1, 1)
        save_matrix(np.hstack([col, col]), bad)  # two identical columns
        good = tmp_path / "good.csv"
        save_matrix(np.eye(5)[:, :2], good)
        ev = tmp_path / "ev"
        assert run("eval", "--data", x, y, "--proj", bad, good,
                   "--orthogonalize", "--out", ev) == 0
        metrics = read_report(f"{ev}_metrics.json")
        assert metrics["rank_deficient"] is True
        assert metrics["k"] == 2

    def test_orthogonalize_names_a_wide_projection_file(self, tmp_path, capsys):
        x, y = gen_pair(tmp_path, m=6, n=5, q=40)
        wide, good = tmp_path / "wide.csv", tmp_path / "good.csv"
        save_matrix(np.eye(2, 5), wide)
        save_matrix(np.eye(5)[:, :2], good)
        assert run("eval", "--data", x, y, "--proj", wide, good, "--orthogonalize",
                   "--out", tmp_path / "ev") == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {wide}: ")
        assert "projection 0 has shape (2, 5), expected (6, k)" in err

    def test_rank_deficient_orthogonalize_still_checks_every_projection(self, tmp_path, capsys):
        x, y = gen_pair(tmp_path, m=6, n=10, q=40)
        bad, short = tmp_path / "bad.csv", tmp_path / "short.csv"
        col = np.arange(6.0).reshape(-1, 1)
        save_matrix(np.hstack([col, col]), bad)  # two identical columns
        save_matrix(np.eye(7)[:, :2], short)
        ev = tmp_path / "ev"
        assert run("eval", "--data", x, y, "--proj", bad, short, "--orthogonalize",
                   "--out", ev) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {short}: ")
        assert "projection 1 has shape (7, 2), expected (10, k)" in err
        assert not Path(f"{ev}_metrics.json").exists()

    def test_zero_cross_covariance_scores_zero(self, tmp_path):
        x1 = tmp_path / "x1.csv"
        x2 = tmp_path / "x2.csv"
        save_matrix(np.array([[1.0, -1.0, 1.0, -1.0], [2.0, -2.0, 2.0, -2.0]]), x1)
        save_matrix(np.array([[1.0, 1.0, -1.0, -1.0], [3.0, 3.0, -3.0, -3.0]]), x2)
        p1 = tmp_path / "p1.csv"
        p2 = tmp_path / "p2.csv"
        save_matrix(np.eye(2)[:, :1], p1)
        save_matrix(np.eye(2)[:, :1], p2)
        ev = tmp_path / "ev"
        assert run("eval", "--data", x1, x2, "--proj", p1, p2, "--out", ev) == 0
        metrics = read_report(f"{ev}_metrics.json")
        assert metrics["total_correlation"] == pytest.approx(0.0, abs=1e-12)

    def test_constant_view_named_by_file(self, tmp_path, capsys):
        x, _ = gen_pair(tmp_path, m=6, n=5, q=40)
        z = tmp_path / "z.csv"
        save_matrix(np.full((5, 40), -1.0), z)  # all zero after centering
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        save_matrix(np.eye(6)[:, :2], p1)
        save_matrix(np.eye(5)[:, :2], p2)
        assert run("eval", "--data", x, z, "--proj", p1, p2, "--out", tmp_path / "ev") == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {z}: ")
        assert "identically zero" in err

    def test_no_center_three_uncentered_views_is_domain_error(self, tmp_path):
        x, y = gen_pair(tmp_path, m=6, n=5, q=40)
        z = tmp_path / "z.csv"
        save_matrix(load_matrix(x)[:5] + load_matrix(y), z)
        projs = []
        for name, rows in (("p1", 6), ("p2", 5), ("p3", 5)):
            projs.append(tmp_path / f"{name}.csv")
            save_matrix(np.eye(rows)[:, :2], projs[-1])
        assert run("eval", "--data", x, y, z, "--proj", *projs, "--no-center",
                   "--out", tmp_path / "ev") == 4

    def test_shape_mismatch_exit_code(self, tmp_path):
        x, y = gen_pair(tmp_path, m=6, n=5, q=40)
        p = tmp_path / "p.csv"
        save_matrix(np.eye(4)[:, :2], p)
        assert run("eval", "--data", x, y, "--proj", p, p, "--out", tmp_path / "ev") == 4

    def test_projection_count_mismatch_is_domain_error(self, tmp_path):
        x, y = gen_pair(tmp_path, m=6, n=5, q=40)
        p = tmp_path / "p.csv"
        save_matrix(np.eye(6)[:, :2], p)
        assert run("eval", "--data", x, y, x, "--proj", p, p, "--out", tmp_path / "ev") == 4

    def test_data_views_are_checked_before_projections_load(self, tmp_path, capsys):
        x, _ = gen_pair(tmp_path, m=6, n=5, q=40)
        y = tmp_path / "const.csv"
        save_matrix(np.full((5, 40), 2.5), y)
        p = tmp_path / "p.csv"
        save_matrix(np.eye(6)[:, :2], p)
        missing = tmp_path / "missing.csv"
        assert run("eval", "--data", x, y, "--proj", p, missing, "--out", tmp_path / "ev") == 4
        assert capsys.readouterr().err.startswith(f"error: {y}: view 1 is identically zero")

    def test_zero_variance_projection_named_by_file(self, tmp_path, capsys):
        x, y = gen_pair(tmp_path, m=6, n=5, q=40)
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        save_matrix(np.eye(6)[:, :2], p1)
        save_matrix(np.zeros((5, 2)), p2)
        assert run("eval", "--data", x, y, "--proj", p1, p2, "--out", tmp_path / "ev") == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p2}: ")
        assert "projection 1 captured zero variance" in err

    def test_misshapen_projection_named_by_file(self, tmp_path, capsys):
        x, y = gen_pair(tmp_path, m=6, n=5, q=40)
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        save_matrix(np.eye(6)[:, :2], p1)
        save_matrix(np.eye(4)[:, :2], p2)
        assert run("eval", "--data", x, y, "--proj", p1, p2, "--out", tmp_path / "ev") == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p2}: ")
        assert "projection 1 has shape (4, 2), expected (5, k)" in err


class TestDeterminism:
    def test_occa_reports_and_csvs_reproducible(self, tmp_path):
        x, y = gen_pair(tmp_path, seed=21)
        codes = []
        for name in ("r1", "r2"):
            codes.append(run("occa", "--x", x, "--y", y, "--k", 2, "--seed", 5,
                             "--out", tmp_path / name))
        assert codes[0] == codes[1] and codes[0] in (0, 3)
        assert (tmp_path / "r1_x_proj.csv").read_bytes() == (tmp_path / "r2_x_proj.csv").read_bytes()
        assert (tmp_path / "r1_y_proj.csv").read_bytes() == (tmp_path / "r2_y_proj.csv").read_bytes()
        # wall time is the one legitimately varying field
        assert mask_wall_time(tmp_path / "r1_report.json") == mask_wall_time(
            tmp_path / "r2_report.json"
        )

    def test_omcca_jacobi_thread_invariance(self, tmp_path):
        x, y = gen_pair(tmp_path, m=8, n=7, q=50, seed=22)
        z = tmp_path / "z.csv"
        save_matrix(load_matrix(x)[:5] + load_matrix(y)[:5], z)
        codes = []
        for name in ("r1", "r2"):
            codes.append(run("omcca", "--views", x, y, z, "--k", 2, "--scheme", "jacobi",
                             "--seed", 5, "--out", tmp_path / name))
        assert codes[0] == codes[1] and codes[0] in (0, 3)
        for i in (1, 2, 3):
            a = (tmp_path / f"r1_view{i}_proj.csv").read_bytes()
            b = (tmp_path / f"r2_view{i}_proj.csv").read_bytes()
            assert a == b
        assert mask_wall_time(tmp_path / "r1_report.json") == mask_wall_time(
            tmp_path / "r2_report.json"
        )

    def test_cross_process_byte_identical(self, tmp_path):
        # two separate interpreter processes, same seed: identical bytes;
        # the children import the same occakit as this process
        src = str(Path(occakit.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for tag in ("p1", "p2"):
            d = tmp_path / tag
            d.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "occakit", "gen", "--m", "6", "--n", "5",
                 "--q", "30", "--seed", "17", "--out", str(d / "s")],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            proc = subprocess.run(
                [sys.executable, "-m", "occakit", "occa", "--x", str(d / "s_x.csv"),
                 "--y", str(d / "s_y.csv"), "--k", "1", "--seed", "17",
                 "--out", str(d / "o")],
                capture_output=True,
                env=env,
            )
            assert proc.returncode in (0, 3), proc.stderr
        for name in ("s_x.csv", "s_y.csv", "o_x_proj.csv", "o_y_proj.csv"):
            assert (tmp_path / "p1" / name).read_bytes() == (tmp_path / "p2" / name).read_bytes()
        assert mask_wall_time(tmp_path / "p1" / "o_report.json") == mask_wall_time(
            tmp_path / "p2" / "o_report.json"
        )


class TestRuntimeWithoutScipy:
    """numpy is the only runtime dependency: importing the package loads
    no scipy module, and every command runs with scipy made unimportable."""

    @staticmethod
    def python(code, cwd):
        src = str(Path(occakit.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, cwd=cwd)

    def test_import_loads_no_scipy(self, tmp_path):
        proc = self.python(
            "import sys, occakit\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_every_command_runs_without_scipy(self, tmp_path):
        commands = [
            ["gen", "--m", "20", "--n", "15", "--q", "300", "--out", "d"],
            ["occa", "--x", "d_x.csv", "--y", "d_y.csv", "--k", "3", "--out", "o"],
            ["omcca", "--views", "d_x.csv", "d_y.csv", "--k", "3", "--out", "m"],
            ["cca-baseline", "--x", "d_x.csv", "--y", "d_y.csv", "--k", "3", "--out", "b"],
            ["eval", "--data", "d_x.csv", "d_y.csv", "--proj", "o_x_proj.csv",
             "o_y_proj.csv", "--out", "e"],
        ]
        proc = self.python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from occakit.cli import main\n"
            f"print([main(argv) for argv in {commands!r}])",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        # occa stops at its 30-step cap here (exit 3), with outputs written
        assert proc.stdout.strip().splitlines()[-1] == "[0, 3, 0, 0, 0]"


@pytest.fixture
def reduced_views(monkeypatch):
    """(view count, rank_tol) of every ``multiset.reduce_views`` call from
    here on, counted at the module attribute the benchmark's tracer wraps."""
    calls = []
    reduce = multiset.reduce_views

    def counting_reduce(views, rank_tol=None):
        calls.append((len(views), rank_tol))
        return reduce(views, rank_tol)

    monkeypatch.setattr(multiset, "reduce_views", counting_reduce)
    return calls


def _svd_twins(d):
    return sorted(d.glob("*." + "[0-9a-f]" * 32 + ".svd.npy"))


def _view_digest(S):
    """The name a reduction twin gives the view ``S``: its shape and bytes."""
    return hashlib.sha256(b"%d,%d;" % S.shape + S.tobytes()).hexdigest()[:32]


class TestReductionTwin:
    """occa, omcca, cca-baseline and eval share each view's reduction
    through its reduction twin (``occakit.data``), and every output is the
    same bit for bit as when each command reduces the views itself."""

    COMMANDS = {
        "occa": ["occa", "--x", "d_x.csv", "--y", "d_y.csv", "--k", 2],
        "multi": ["omcca", "--views", "d_x.csv", "d_y.csv", "--k", 2],
        "jac": ["omcca", "--views", "d_x.csv", "d_y.csv", "--k", 2, "--weights", "tree",
                "--scheme", "jacobi"],
        "base": ["cca-baseline", "--x", "d_x.csv", "--y", "d_y.csv", "--k", 2],
        "ev": ["eval", "--data", "d_x.csv", "d_y.csv", "--proj", "base_x_proj.csv",
               "base_y_proj.csv", "--weights", "tree"],
    }

    @classmethod
    def run_all(cls, d, monkeypatch):
        """Run every command in ``d``; its projections and reports, the
        reports with the wall time masked."""
        monkeypatch.chdir(d)
        for out, argv in cls.COMMANDS.items():
            assert run(*argv, "--out", out) in (0, 3)
        return cls.outputs(d)

    @classmethod
    def outputs(cls, d):
        return {f.name: mask_wall_time(f) if f.suffix == ".json" else f.read_bytes()
                for f in sorted(d.iterdir())
                if f.name.split("_")[0] in cls.COMMANDS and f.suffix in (".csv", ".json")}

    @staticmethod
    def data(tmp_path, monkeypatch, copy=None):
        """``gen``'s d pair in a new directory ``work`` (with binary twins)
        and, when ``copy`` is given, the same matrices written by
        ``np.savetxt`` (without) in the directory ``copy``."""
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run("gen", "--m", 10, "--n", 8, "--q", 60, "--seed", 7, "--out", "d") == 0
        if copy is not None:
            (tmp_path / copy).mkdir()
            for v in "xy":
                np.savetxt(tmp_path / copy / f"d_{v}.csv", load_matrix(work / f"d_{v}.csv"),
                           delimiter=",", fmt="%.17g")
        return work

    def test_pipeline_reduces_each_view_once(self, tmp_path, monkeypatch, reduced_views):
        work = self.data(tmp_path, monkeypatch)
        for out in ("occa", "multi", "base"):
            assert run(*self.COMMANDS[out], "--out", out) in (0, 3)
        # occa reduces both views and writes their twins; omcca and
        # cca-baseline read them
        assert reduced_views == [(2, None)]
        assert [t.name[:7] for t in _svd_twins(work)] == ["d_x.csv", "d_y.csv"]

    @pytest.mark.parametrize("fault", ["present", "deleted", "empty", "truncated", "wrong-shape",
                                       "non-finite", "object", "float32", "sigma-increasing"])
    def test_outputs_are_the_same_whatever_the_twins_hold(self, tmp_path, monkeypatch,
                                                          reduced_views, fault):
        work = self.data(tmp_path, monkeypatch, copy="plain")
        want = self.run_all(tmp_path / "plain", monkeypatch)
        assert not _svd_twins(tmp_path / "plain")  # no binary twin, no reduction twin
        monkeypatch.chdir(work)
        assert run(*self.COMMANDS["occa"], "--out", "first") in (0, 3)
        twins = _svd_twins(work)
        assert len(twins) == 2
        for twin in twins:
            n = load_matrix(work / twin.name[:7]).shape[0]
            M = np.load(twin)
            if fault == "deleted":
                twin.unlink()
            elif fault in ("empty", "truncated"):
                twin.write_bytes(twin.read_bytes()[:-8] if fault == "truncated" else b"")
            elif fault != "present":
                if fault == "sigma-increasing":
                    M[n] = M[n][::-1]
                elif fault == "non-finite":
                    M[0, 0] = np.nan
                M = {"wrong-shape": M[:-1], "object": M.astype(object),
                     "float32": M.astype(np.float32)}.get(fault, M)
                np.save(twin, M, allow_pickle=True)
        reduced_views.clear()
        assert self.run_all(work, monkeypatch) == want
        # a twin that is not used is written anew, and then read
        assert reduced_views == ([] if fault == "present" else [(2, None)])
        assert _svd_twins(work) == twins
        reduced_views.clear()
        assert run(*self.COMMANDS["multi"], "--out", "again") in (0, 3)
        assert reduced_views == []

    def test_a_command_that_fails_after_reducing_leaves_its_twins(self, tmp_path, monkeypatch,
                                                                   reduced_views):
        work = self.data(tmp_path, monkeypatch, copy="plain")
        monkeypatch.chdir(tmp_path / "plain")
        assert run(*self.COMMANDS["multi"], "--out", "multi") in (0, 3)
        assert not _svd_twins(tmp_path / "plain")
        monkeypatch.chdir(work)
        # k = 8 is not below the rank 8 of view 1: occa reduces both views,
        # then exits 4
        assert run("occa", "--x", "d_x.csv", "--y", "d_y.csv", "--k", 8, "--out", "o") == 4
        assert not list(work.glob("o_*"))
        assert [t.name[:7] for t in _svd_twins(work)] == ["d_x.csv", "d_y.csv"]
        reduced_views.clear()
        assert run(*self.COMMANDS["multi"], "--out", "multi") in (0, 3)
        assert reduced_views == []
        for v in (1, 2):
            name = f"multi_view{v}_proj.csv"
            assert (work / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_centered_and_uncentered_loads_have_twins_of_their_own(self, tmp_path, monkeypatch,
                                                                   reduced_views):
        work = self.data(tmp_path, monkeypatch)
        raw = {}
        for v in "xy":
            save_matrix(occakit.center(load_matrix(f"d_{v}.csv")), f"c_{v}.csv")
            raw[v] = load_matrix(f"c_{v}.csv")
            assert not np.array_equal(raw[v], occakit.center(raw[v]))
        runs = {"un": ("--no-center",), "ce": ()}
        for out, flags in runs.items():
            assert run("occa", "--x", "c_x.csv", "--y", "c_y.csv", "--k", 2, *flags,
                       "--out", out) in (0, 3)
        assert reduced_views == [(2, None), (2, None)]
        for v in "xy":
            names = {t.name for t in _svd_twins(work) if t.name.startswith(f"c_{v}.csv.")}
            assert names == {f"c_{v}.csv.{_view_digest(S)}.svd.npy"
                             for S in (raw[v], occakit.center(raw[v]))}
        reduced_views.clear()
        for out, flags in runs.items():
            assert run("occa", "--x", "c_x.csv", "--y", "c_y.csv", "--k", 2, *flags,
                       "--out", f"{out}2") in (0, 3)
            for v in "xy":
                assert (work / f"{out}2_{v}_proj.csv").read_bytes() == (
                    work / f"{out}_{v}_proj.csv").read_bytes()
        assert reduced_views == []

    def test_header_loads_neither_read_nor_write_twins(self, tmp_path, monkeypatch,
                                                       reduced_views):
        work = self.data(tmp_path, monkeypatch)
        assert run(*self.COMMANDS["occa"], "--header", "--out", "h") in (0, 3)
        assert run(*self.COMMANDS["multi"], "--header", "--out", "h2") in (0, 3)
        assert not _svd_twins(work)
        assert run(*self.COMMANDS["occa"], "--out", "o") in (0, 3)
        twins = {t: t.read_bytes() for t in _svd_twins(work)}
        reduced_views.clear()
        assert run(*self.COMMANDS["multi"], "--header", "--out", "h3") in (0, 3)
        assert reduced_views == [(2, None)]
        assert {t: t.read_bytes() for t in _svd_twins(work)} == twins

    def test_rank_tol_neither_reads_nor_writes_twins(self, tmp_path, monkeypatch):
        work = self.data(tmp_path, monkeypatch)
        argv = [*self.COMMANDS["base"], "--rank-tol", 1e-8]
        assert run(*argv, "--out", "t1") == 0
        assert not _svd_twins(work)
        assert run(*self.COMMANDS["occa"], "--out", "o") in (0, 3)
        # factors that pass every check but are not the view's: a command
        # that read them would write other projections
        for twin in _svd_twins(work):
            M = np.load(twin)
            M[load_matrix(work / twin.name[:7]).shape[0]] *= 2.0
            np.save(twin, M)
        assert run(*argv, "--out", "t2") == 0
        for v in "xy":
            assert (work / f"t2_{v}_proj.csv").read_bytes() == (
                work / f"t1_{v}_proj.csv").read_bytes()
        assert run(*self.COMMANDS["base"], "--out", "b") == 0
        assert (work / "b_x_proj.csv").read_bytes() != (work / "t1_x_proj.csv").read_bytes()

    @pytest.mark.parametrize("twins", [False, True], ids=["without-twins", "with-twins"])
    def test_read_only_data_directory(self, tmp_path, monkeypatch, twins):
        work = self.data(tmp_path, monkeypatch, copy="plain")
        want = self.run_all(tmp_path / "plain", monkeypatch)
        monkeypatch.chdir(work)
        if twins:
            assert run(*self.COMMANDS["occa"], "--out", "first") in (0, 3)
        before = sorted(work.iterdir())
        out = tmp_path / "out"
        out.mkdir()
        # chmod does not bind a superuser, so data's own writes into the
        # directory fail as they would there
        opener = open

        def read_only_open(file, mode="r", *args, **kwargs):
            if Path(file).resolve().parent == work and set(mode) & set("wxa+"):
                raise PermissionError(13, "Permission denied", str(file))
            return opener(file, mode, *args, **kwargs)

        monkeypatch.setattr(occakit.data, "open", read_only_open, raising=False)
        work.chmod(0o555)
        try:
            for name, argv in self.COMMANDS.items():
                argv = [a.replace("base_", str(out / "base_")) if isinstance(a, str) else a
                        for a in argv]
                assert run(*argv, "--out", out / name) in (0, 3)
        finally:
            work.chmod(0o755)
        assert sorted(work.iterdir()) == before
        assert self.outputs(out) == want
