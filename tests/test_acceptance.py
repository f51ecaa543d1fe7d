"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers when it holds (pytest -s shows them).

Criterion 1 has a documented expected failure: a solver run seeded at
the known local (non-global) maximizer cannot stay there, because that
point's cross product with D is indefinite and the alignment step
ejects it (see decisions ledger).  The faithful assertion is kept as a
strict xfail; the actual monotone escape to the global value is pinned
by its own test.
"""

import json
import time

import numpy as np
import pytest

from occakit import (
    AltConfig,
    OmccaConfig,
    ScfConfig,
    SubproblemSpec,
    SyntheticSpec,
    build_two_view,
    build_weights,
    center,
    classical_cca,
    dist_tr,
    eta,
    gen_synthetic,
    grad_eta,
    kkt_residual,
    objective_f,
    occa_alternate,
    orthonormalize,
    pairwise_rho_hat,
    post_orthogonalize,
    rcomcca,
    reduce_views,
    sample_tangent,
    scf_solve,
    second_order_check,
    select_weights,
    softmax_normalize,
)
from occakit.cli import main as cli_main
from occakit.data import read_report

import oracles
from cases import (
    ETA_HIGH,
    ETA_LOW,
    MAXIMIZER_HIGH,
    MAXIMIZER_LOW,
    REF_A,
    REF_D,
    correlated_views,
    rounded_start,
)


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS — {detail}")


def ref_spec():
    return SubproblemSpec(REF_A, REF_D)


def wishart_spec(rng, n, k, ridge=0.1):
    M = rng.standard_normal((n, n))
    return SubproblemSpec(M @ M.T + ridge * np.eye(n), rng.standard_normal((n, k)))


def random_stiefel(n, k, rng):
    return orthonormalize(rng.standard_normal((n, k)))


# ---------------------------------------------------------------- criterion 1


class TestCriterion1ReferenceInstance:
    CFG = ScfConfig(eps_scf=1e-7, max_iter=100)

    def test_high_start_converges_to_global_value(self):
        t0 = time.perf_counter()
        rep = scf_solve(ref_spec(), G0=rounded_start(MAXIMIZER_HIGH), cfg=self.CFG)
        elapsed = time.perf_counter() - t0
        assert rep.eta_trace[-1] == pytest.approx(ETA_HIGH, abs=1e-2)
        assert kkt_residual(rep.solution, ref_spec()) <= 1e-5
        assert elapsed < 1.0
        report("1a", f"high start -> eta {rep.eta_trace[-1]:.6f} in {elapsed:.3f}s")

    @pytest.mark.xfail(
        strict=True,
        reason="spec defect: the ~2.303 maximizer has indefinite G^T D, so the "
        "alignment step ejects the iteration toward the global value; no "
        "faithful run of the algorithm can stay at 2.303 (decisions ledger)",
    )
    def test_low_start_stays_at_local_value(self):
        rep = scf_solve(ref_spec(), G0=rounded_start(MAXIMIZER_LOW), cfg=self.CFG)
        assert rep.eta_trace[-1] == pytest.approx(ETA_LOW, abs=1e-2)

    def test_low_start_documented_behavior(self):
        # what actually happens: a monotone escape to the global value,
        # still first-order convergent
        t0 = time.perf_counter()
        spec = ref_spec()
        low = rounded_start(MAXIMIZER_LOW)
        assert eta(low, spec) == pytest.approx(ETA_LOW, abs=1e-2)
        rep = scf_solve(spec, G0=low, cfg=self.CFG)
        elapsed = time.perf_counter() - t0
        tr = np.array(rep.eta_trace)
        assert tr[0] == pytest.approx(ETA_LOW, abs=1e-2)
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))
        assert rep.eta_trace[-1] == pytest.approx(ETA_HIGH, abs=1e-2)
        assert kkt_residual(rep.solution, spec) <= 1e-5
        assert elapsed < 1.0
        print(
            "[criterion 1b] EXPECTED FAIL — low start escapes monotonically to "
            f"eta {rep.eta_trace[-1]:.6f} (see decisions ledger); "
            f"KKT residual at the converged point <= 1e-5 holds"
        )


# ---------------------------------------------------------------- criterion 2


def test_criterion2_second_order_certificates():
    t0 = time.perf_counter()
    spec = ref_spec()
    worst = []
    for point in (MAXIMIZER_HIGH, MAXIMIZER_LOW):
        rep = second_order_check(point, spec, samples=10_000, rng=0)
        assert rep.passed
        assert rep.worst_margin >= -1e-8
        worst.append(rep.worst_margin)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("2", f"10^4 tangent samples at both maximizers, worst margins {worst[0]:.2e}/{worst[1]:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3


def test_criterion3_closed_form_oracle_suite():
    t0 = time.perf_counter()
    cfg = ScfConfig(eps_scf=1e-11, max_iter=300)
    worst_rel, worst_dist = 0.0, 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        spec = wishart_spec(rng, n, 1)
        rep = scf_solve(spec, cfg=cfg)
        g_star = np.linalg.solve(spec.A, spec.D)
        eta_star = (spec.D.T @ g_star).item()
        g_star = g_star / np.linalg.norm(g_star)
        rel = abs(rep.eta_trace[-1] - eta_star) / eta_star
        d = dist_tr(rep.solution, g_star)
        worst_rel, worst_dist = max(worst_rel, rel), max(worst_dist, d)
        assert rel <= 1e-8
        assert d <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("3", f"50 closed-form k=1 instances, worst rel {worst_rel:.1e}, worst dist {worst_dist:.1e}, {elapsed:.1f}s")


# ------------------------------------------------------- criteria 4 and 5


@pytest.fixture(scope="module")
def subproblem_runs():
    runs = []
    t0 = time.perf_counter()
    sizes = [(5, 1), (5, 2), (20, 2), (20, 5), (100, 5)]
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n, k = sizes[seed % len(sizes)]
        spec = wishart_spec(rng, n, k)
        rep = scf_solve(spec, G0=random_stiefel(n, k, rng))
        runs.append((spec, rep))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def twoview_runs():
    runs = []
    t0 = time.perf_counter()
    for seed in range(50):
        sx, sy = gen_synthetic(SyntheticSpec(m=20, n=20, q=200, seed=2000 + seed))
        prob = build_two_view(center(sx), center(sy))
        runs.append((prob, occa_alternate(prob, k=3)))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gauss_seidel_runs():
    runs = []
    t0 = time.perf_counter()
    for seed in range(30):
        views = correlated_views((8, 6, 7), q=40, seed=3000 + seed)
        w = build_weights(views, "uniform")
        runs.append(rcomcca(views, 2, w, cfg=OmccaConfig(scheme="gauss_seidel")))
    return runs, time.perf_counter() - t0


def test_criterion4_monotonicity_suites(subproblem_runs, twoview_runs, gauss_seidel_runs):
    sub, t_sub = subproblem_runs
    two, t_two = twoview_runs
    gs, t_gs = gauss_seidel_runs
    for _, rep in sub:
        tr = np.array(rep.eta_trace)
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))
    for _, rep in two:
        tr = np.array(rep.F_trace)
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))
    for rep in gs:
        tr = np.array(rep.g_trace)
        assert np.all(np.diff(tr) >= -1e-12 * np.abs(tr[1:]))
    total = t_sub + t_two + t_gs
    assert total < 120.0
    report("4", f"monotone traces: 100 subproblems, 50 two-view, 30 Gauss-Seidel in {total:.1f}s")


def test_criterion5_psd_certificates(subproblem_runs, twoview_runs):
    sub, _ = subproblem_runs
    two, _ = twoview_runs
    for spec, rep in sub:
        bound = -1e-10 * max(1.0, float(np.max(np.abs(spec.D))))
        assert all(v >= bound for v in rep.dtg_min_eigs)
    for prob, rep in two:
        bound = -1e-9 * float(np.max(np.abs(prob.C)))
        assert all(v >= bound for v in rep.xcy_min_eigs)
        assert all(a <= 1e-10 for a in rep.xcy_asyms)  # symmetry, C-scaled
    report("5", "D^T G PSD at every SCF iterate; X^T C Y symmetric PSD at every outer step")


# ---------------------------------------------------------------- criterion 6


def test_criterion6_gradient_finite_difference():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        n, k = 6, 2
        spec = wishart_spec(rng, n, k)
        G = random_stiefel(n, k, rng)
        H = sample_tangent(G, rng)
        inner = float(np.sum(grad_eta(G, spec) * H))
        fd = oracles.fd_directional_eta(spec.A, spec.D, G, H)
        rel = abs(inner - fd) / max(abs(fd), abs(inner), 1e-10)
        worst = max(worst, rel)
        assert rel <= 1e-5
    report("6", f"50 finite-difference probes, worst relative error {worst:.1e}")


# ---------------------------------------------------------------- criterion 7


def test_criterion7_multistart_brute_force_equivalence():
    t0 = time.perf_counter()
    cfg = ScfConfig(eps_scf=1e-7, max_iter=100)
    hits = 0
    total = 20
    for seed in range(total):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, min(3, n)))
        spec = wishart_spec(rng, n, k)
        best_scf = -np.inf
        for start in range(10):
            G0 = None if start == 0 else random_stiefel(n, k, rng)
            rep = scf_solve(spec, G0=G0, cfg=cfg)
            best_scf = max(best_scf, rep.eta_trace[-1])
        best_pga, _ = oracles.pga_best_eta(
            spec.A, spec.D, n_starts=1000, iters=400, seed=seed
        )
        if best_scf >= best_pga * (1 - 1e-4):
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 0.9 * total
    assert elapsed < 180.0
    report("7", f"10-start SCF matched 1000-start ascent oracle on {hits}/{total} instances in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 8


def test_criterion8_cross_solver_consistency():
    # both solvers must drive their inner subproblems essentially to
    # their fixed points, else each one's loose stopping set hides the
    # agreement being tested
    inner = ScfConfig(eps_scf=1e-12, max_iter=50)
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        views = correlated_views((9, 7), q=50, seed=6000 + seed)
        w = build_weights(views, "uniform")
        rep = rcomcca(
            views,
            2,
            w,
            cfg=OmccaConfig(
                eps_outer=1e-15, max_cycles=80, scheme="gauss_seidel", scf_cfg=inner
            ),
        )
        reduced = reduce_views(views)
        red = [np.diag(rv.sigma) @ rv.V.T for rv in reduced]
        prob = build_two_view(red[0], red[1])
        alt = occa_alternate(
            prob, 2, alt_cfg=AltConfig(eps_alt=1e-15, max_outer=80), scf_cfg=inner
        )
        d0 = dist_tr(reduced[0].U.T @ rep.projections[0], alt.X)
        d1 = dist_tr(reduced[1].U.T @ rep.projections[1], alt.Y)
        worst = max(worst, d0, d1)
        assert d0 <= 1e-4 and d1 <= 1e-4
    elapsed = time.perf_counter() - t0
    report("8", f"10 two-view instances, worst per-view subspace distance {worst:.1e} in {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 9


def test_criterion9_weighting_correctness():
    rng = np.random.default_rng(7000)
    for _ in range(100):
        Si = center(rng.standard_normal((int(rng.integers(2, 6)), 25)))
        Sj = center(rng.standard_normal((int(rng.integers(2, 6)), 25)))
        v = pairwise_rho_hat(Si, Sj)
        assert 0.0 <= v <= 1.0 + 1e-10

    R = np.zeros((4, 4))
    for (i, j), v in {
        (0, 1): 0.9, (0, 2): 0.2, (0, 3): 0.8,
        (1, 2): 0.7, (1, 3): 0.1, (2, 3): 0.6,
    }.items():
        R[i, j] = R[j, i] = v
    tree = select_weights(R, "tree")
    expected, _ = oracles.best_spanning_tree(R)
    assert len(tree) == 3
    assert {(i, j) for i, j, _ in tree} == expected
    for p in range(1, 7):
        assert len(select_weights(R, f"top:{p}")) == p

    w = softmax_normalize(select_weights(R, "uniform"), size=4)
    assert sum(w.rho[i, j] for i in range(4) for j in range(i + 1, 4)) == pytest.approx(1.0, abs=1e-12)

    w2 = softmax_normalize([(0, 1, 1.0), (0, 2, 0.9)], size=3, bandwidth=20.0)
    assert w2.rho[0, 1] == pytest.approx(0.880797, abs=1e-6)
    assert w2.rho[0, 2] == pytest.approx(0.119203, abs=1e-6)
    report("9", "affinity bounds, spanning-tree selection, top-p counts and soft-max values verified")


# --------------------------------------------------------------- criterion 10


@pytest.mark.slow
def test_criterion10_desk_scale_performance_gate():
    sx, sy = gen_synthetic(SyntheticSpec(m=200, n=200, q=2000, seed=8000))
    prob = build_two_view(center(sx), center(sy))
    t0 = time.perf_counter()
    rep = occa_alternate(prob, k=10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0

    wins = 0
    total = 50
    for seed in range(total):
        sx, sy = gen_synthetic(SyntheticSpec(m=200, n=200, q=2000, seed=8100 + seed))
        prob = build_two_view(center(sx), center(sy))
        rep = occa_alternate(prob, k=10)
        X1, X2, _ = classical_cca(prob, k=10)
        f_base = objective_f(post_orthogonalize(X1), post_orthogonalize(X2), prob)
        if rep.f_final >= f_base - 1e-12:
            wins += 1
    assert wins >= 0.9 * total
    report("10", f"timed solve {elapsed:.1f}s < 30s; beat post-orthogonalized baseline on {wins}/{total} seeds")


# --------------------------------------------------------------- criterion 11


def _masked_report(path):
    rep = read_report(path)
    # wall time is the one field that legitimately varies between runs
    # (decisions ledger); everything else must be byte-stable
    rep["wall_time_seconds"] = 0.0
    return json.dumps(rep, sort_keys=True)


def test_criterion11_determinism(tmp_path):
    def run(*argv):
        return cli_main([str(a) for a in argv])

    outputs = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        assert run("gen", "--m", 12, "--n", 10, "--q", 80, "--seed", 9, "--out", d / "s") == 0
        assert run(
            "occa", "--x", d / "s_x.csv", "--y", d / "s_y.csv", "--k", 2,
            "--seed", 9, "--out", d / "o",
        ) in (0, 3)
        assert run(
            "omcca", "--views", d / "s_x.csv", d / "s_y.csv", "--k", 2,
            "--scheme", "jacobi", "--seed", 9, "--out", d / "m",
        ) in (0, 3)
        outputs[tag] = d

    a, b = outputs["a"], outputs["b"]
    for name in ("s_x.csv", "s_y.csv", "o_x_proj.csv", "o_y_proj.csv",
                 "m_view1_proj.csv", "m_view2_proj.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert _masked_report(a / "o_report.json") == _masked_report(b / "o_report.json")
    assert _masked_report(a / "m_report.json") == _masked_report(b / "m_report.json")
    report("11", "byte-identical CSVs and reports (wall time masked), Jacobi omcca included")
