"""The three benchmark workloads.

Each runs closed loop: one caller, ops in sequence, the next op starting
when the previous one returns.  A workload builds its inputs from the
seed in ``setup``, runs one pass of ops in ``run_pass`` and checks every
op's output in ``check``, which runs after the pass, outside the timed
region and with tracing off.  ``FULL`` is the measured size; ``SMOKE`` is
the reduced size used for warm-up and by the self-test.

Functions are looked up on their occakit module at call time
(``multiset.rcomcca``, not a name bound at import), so the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

from perfbench import checks


class Pass:
    """One pass of a workload: op times by kind, results and problems.

    An op that raises, exits 2 or 4, or fails a check counts as failed;
    exit 3 (iteration cap, outputs written) counts as completed.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = defaultdict(float)
        self.results = {}
        self.problems = defaultdict(list)
        self.facts = defaultdict(list)
        self.digests = {}

    def op(self, name, kind, fn):
        try:
            if self.tracer is None:
                start = time.perf_counter()
                result = fn()
                took = time.perf_counter() - start
            else:
                result, took = self.tracer.op(name, fn)
        except Exception as exc:  # one failed op must not end the run
            traceback.print_exc(file=sys.stderr)
            self.problems[name].append(f"raised {exc!r}")
            self.results[name] = None
            return None
        self.seconds[kind] += took
        self.seconds["wall"] += took
        self.results[name] = result
        return result

    def check(self, name, *problems):
        self.problems[name].extend(p for p in problems if p)

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        """Ops, and outputs compared across passes, with a problem."""
        return sum(1 for found in self.problems.values() if found)


def _cli(*argv):
    """Run one CLI command in-process; returns (exit code, its output)."""
    from occakit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _exit_ok(p, name, allowed):
    res = p.results.get(name)
    if res is None:
        return False
    code, text = res
    if code not in allowed:
        p.check(name, f"exit {code}: {text.strip()[-300:]}")
        return False
    return True


def _load(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


class ReadmePipeline:
    """The README CLI pipeline, in-process, in a fresh directory per pass."""

    name = "readme_pipeline"
    FULL = {"m": 200, "n": 200, "q": 2000, "k": 10}
    SMOKE = {"m": 12, "n": 10, "q": 80, "k": 2}

    def setup(self, seed, size):
        return {"seed": seed, "size": size}

    def reference(self, state):
        from occakit import data, multiset, twoview, weighting

        size = state["size"]
        sx, sy = data.gen_synthetic(
            data.SyntheticSpec(m=size["m"], n=size["n"], q=size["q"], seed=state["seed"])
        )
        views = [data.center(sx), data.center(sy)]
        return {
            "prob": twoview.build_two_view(*views),
            "reduced": multiset.reduce_views(views),
            "weights": weighting.build_weights(views, "uniform"),
        }

    def run_pass(self, state, p, workdir):
        size, seed = state["size"], state["seed"]
        s, k = workdir / "s", size["k"]
        sx, sy = f"{s}_x.csv", f"{s}_y.csv"
        p.op("gen", "gen", lambda: _cli(
            "gen", "--m", size["m"], "--n", size["n"], "--q", size["q"], "--seed", seed, "--out", s))
        p.op("occa", "occa", lambda: _cli(
            "occa", "--x", sx, "--y", sy, "--k", k, "--seed", seed, "--out", workdir / "two"))
        p.op("omcca", "omcca", lambda: _cli(
            "omcca", "--views", sx, sy, "--k", k, "--seed", seed, "--out", workdir / "multi"))
        p.op("baseline", "baseline", lambda: _cli(
            "cca-baseline", "--x", sx, "--y", sy, "--k", k, "--seed", seed,
            "--out", workdir / "base"))
        p.op("eval", "eval", lambda: _cli(
            "eval", "--data", sx, sy, "--proj", workdir / "two_x_proj.csv",
            workdir / "two_y_proj.csv", "--seed", seed, "--out", workdir / "two"))
        p.op("eval_orth", "eval", lambda: _cli(
            "eval", "--data", sx, sy, "--proj", workdir / "base_x_proj.csv",
            workdir / "base_y_proj.csv", "--orthogonalize", "--seed", seed,
            "--out", workdir / "base"))

    def check(self, state, ref, p, workdir):
        _exit_ok(p, "gen", (0,))
        _exit_ok(p, "baseline", (0,))
        occa_report = None
        if _exit_ok(p, "occa", (0, 3)):
            X, Y = _load(workdir / "two_x_proj.csv"), _load(workdir / "two_y_proj.csv")
            occa_report = json.loads((workdir / "two_report.json").read_text())
            p.check(
                "occa",
                checks.orthonormal(X, "occa X"),
                checks.orthonormal(Y, "occa Y"),
                checks.psd_certificate(occa_report["xcy_min_eigs"], ref["prob"].C, "occa"),
                checks.nondecreasing(occa_report["objective_trace"], "occa F_trace"),
            )
            p.facts["occa_f"].append(occa_report["f_final"])
            p.facts["occa_kkt"].append(checks.occa_kkt(X, Y, ref["prob"]))
        if _exit_ok(p, "omcca", (0, 3)):
            projs = [_load(workdir / f"multi_view{i}_proj.csv") for i in (1, 2)]
            report = json.loads((workdir / "multi_report.json").read_text())
            for i, (X, rv) in enumerate(zip(projs, ref["reduced"]), start=1):
                p.check("omcca", checks.orthonormal(X, f"omcca view {i}"),
                        checks.in_range(X, rv.U, f"omcca view {i}"))
            p.check("omcca", checks.nondecreasing(report["objective_trace"], "omcca g_trace"))
            p.facts["omcca_g"].append(report["objective_trace"][-1])
            p.facts["omcca_kkt"].append(checks.omcca_kkt(projs, ref["reduced"], ref["weights"]))
        if _exit_ok(p, "eval", (0,)) and occa_report is not None:
            metrics = json.loads((workdir / "two_metrics.json").read_text())
            p.check("eval", checks.agree(metrics["f"], occa_report["f_final"], "eval f vs occa f_final"))
        if _exit_ok(p, "eval_orth", (0,)):
            metrics = json.loads((workdir / "base_metrics.json").read_text())
            if metrics["rank_deficient"] or not np.isfinite(metrics["total_correlation"]):
                p.check("eval_orth", f"baseline eval degenerate: {metrics}")
        p.digests = {f.name: checks.file_digest(f) for f in sorted(workdir.iterdir())}


class WideQLtN:
    """In memory, q < n: range reduction and the LOBPCG branch (rank 520)."""

    name = "wide_q_lt_n"
    FULL = {"m": 1000, "n": 800, "q": 520, "k": 10, "threads": 2}
    SMOKE = {"m": 40, "n": 30, "q": 24, "k": 3, "threads": 2}

    def setup(self, seed, size):
        from occakit import data

        sx, sy = data.gen_synthetic(
            data.SyntheticSpec(m=size["m"], n=size["n"], q=size["q"], seed=seed)
        )
        return {"size": size, "views": [data.center(sx), data.center(sy)]}

    def reference(self, state):
        from occakit import multiset

        return {"reduced": multiset.reduce_views(state["views"])}

    def run_pass(self, state, p, workdir):
        from occakit import multiset, weighting

        size, views = state["size"], state["views"]
        w = p.op("weights", "weights", lambda: weighting.build_weights(views, "uniform"))
        p.op("omcca", "omcca", lambda: multiset.rcomcca(
            views, size["k"], w, cfg=multiset.OmccaConfig(scheme="jacobi"),
            threads=size["threads"]))

    def check(self, state, ref, p, workdir):
        rep = p.results.get("omcca")
        if rep is not None:
            _check_multiset(p, "omcca", rep, ref["reduced"], p.results["weights"], monotone=False)


def _check_multiset(p, name, rep, reduced, weights, monotone):
    for i, (X, rv) in enumerate(zip(rep.projections, reduced), start=1):
        p.check(name, checks.orthonormal(X, f"{name} view {i}"),
                checks.in_range(X, rv.U, f"{name} view {i}"))
    if monotone:
        p.check(name, checks.nondecreasing(rep.g_trace, f"{name} g_trace"))
    p.facts["omcca_g"].append(rep.g_trace[-1])
    p.facts["omcca_kkt"].append(checks.omcca_kkt(rep.projections, reduced, weights))
    p.digests[name] = checks.digest(*rep.projections, rep.g_trace, rep.loop_g_trace)


def correlated_views(sizes, q, rng, shared=3, noise=0.05):
    """Views sharing a ``shared``-dimensional latent factor, centered;
    the generator of the acceptance suite's criterion-8 instances."""
    from occakit import data

    Z = rng.standard_normal((shared, q))
    return [
        data.center(rng.standard_normal((n_i, shared)) @ Z + noise * rng.standard_normal((n_i, q)))
        for n_i in sizes
    ]


class SmallTight:
    """Tiny views at tight tolerances: every solve runs to its caps, so
    fixed per-sweep overhead dominates."""

    name = "small_tight"
    FULL = {
        "instances": 2, "sizes": (9, 7), "q": 50, "k": 2,
        "eps_scf": 1e-12, "max_iter": 50, "eps_outer": 1e-15, "max_outer": 80,
        "many": (9, 7, 8, 6, 9, 7, 8, 6), "top": 10, "threads": 2, "max_cycles": 100,
    }
    SMOKE = {
        "instances": 1, "sizes": (5, 4), "q": 20, "k": 2,
        "eps_scf": 1e-12, "max_iter": 5, "eps_outer": 1e-15, "max_outer": 4,
        "many": (5, 4, 5, 4), "top": 3, "threads": 2, "max_cycles": 5,
    }

    def setup(self, seed, size):
        from occakit import weighting

        instances = [
            correlated_views(size["sizes"], size["q"], np.random.default_rng([seed, 8, i]))
            for i in range(size["instances"])
        ]
        # a top-p selection can leave a view with no pair, which rcomcca
        # rejects by design; draw until every view is covered
        ell = len(size["many"])
        for attempt in range(100):
            many = correlated_views(size["many"], size["q"], np.random.default_rng([seed, 9, attempt]))
            edges = weighting.select_weights(weighting.rho_hat_matrix(many), f"top:{size['top']}")
            if len({v for i, j, _ in edges for v in (i, j)}) == ell:
                break
        else:
            raise RuntimeError(f"no top:{size['top']} instance without an isolated view")
        return {"size": size, "instances": instances, "many": many}

    def reference(self, state):
        from occakit import multiset

        return {
            "reduced": [multiset.reduce_views(v) for v in state["instances"]],
            "reduced_many": multiset.reduce_views(state["many"]),
        }

    def run_pass(self, state, p, workdir):
        from occakit import multiset, scf, twoview, weighting

        size = state["size"]
        k = size["k"]
        inner = scf.ScfConfig(eps_scf=size["eps_scf"], max_iter=size["max_iter"])
        for i, views in enumerate(state["instances"]):
            w = p.op(f"weights{i}", "weights", lambda: weighting.build_weights(views, "uniform"))
            p.op(f"omcca{i}", "omcca", lambda: multiset.rcomcca(
                views, k, w, cfg=multiset.OmccaConfig(
                    eps_outer=size["eps_outer"], max_cycles=size["max_outer"],
                    scheme="gauss_seidel", scf_cfg=inner)))
            prob = p.op(f"reduce{i}", "reduce", lambda: _reduced_pair(views))
            p.op(f"occa{i}", "occa", lambda: twoview.occa_alternate(
                prob, k, alt_cfg=twoview.AltConfig(eps_alt=size["eps_outer"],
                                                   max_outer=size["max_outer"]),
                scf_cfg=inner))
        w = p.op("weights_many", "weights",
                 lambda: weighting.build_weights(state["many"], f"top:{size['top']}"))
        p.op("omcca_many", "omcca", lambda: multiset.rcomcca(
            state["many"], k, w,
            cfg=multiset.OmccaConfig(scheme="jacobi", max_cycles=size["max_cycles"]),
            threads=size["threads"]))

    def check(self, state, ref, p, workdir):
        for i, reduced in enumerate(ref["reduced"]):
            rep = p.results.get(f"omcca{i}")
            if rep is not None:
                _check_multiset(p, f"omcca{i}", rep, reduced, p.results[f"weights{i}"],
                                monotone=True)
            alt, prob = p.results.get(f"occa{i}"), p.results.get(f"reduce{i}")
            if alt is not None:
                name = f"occa{i}"
                p.check(
                    name,
                    checks.orthonormal(alt.X, f"{name} X"),
                    checks.orthonormal(alt.Y, f"{name} Y"),
                    checks.psd_certificate(alt.xcy_min_eigs, prob.C, name),
                    checks.nondecreasing(alt.F_trace, f"{name} F_trace"),
                )
                p.facts["occa_f"].append(alt.f_final)
                p.facts["occa_kkt"].append(checks.occa_kkt(alt.X, alt.Y, prob))
                p.digests[name] = checks.digest(alt.X, alt.Y, alt.F_trace)
        rep = p.results.get("omcca_many")
        if rep is not None:
            _check_multiset(p, "omcca_many", rep, ref["reduced_many"],
                            p.results["weights_many"], monotone=False)


def _reduced_pair(views):
    """Two-view problem on the range-reduced coordinates diag(sigma) V^T."""
    from occakit import multiset, twoview

    red = [np.diag(rv.sigma) @ rv.V.T for rv in multiset.reduce_views(views)]
    return twoview.build_two_view(red[0], red[1])


WORKLOADS = {w.name: w for w in (ReadmePipeline(), WideQLtN(), SmallTight())}
