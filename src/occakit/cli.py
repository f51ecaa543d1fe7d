"""Command-line entry point.

Commands: ``gen`` (synthetic two-view data), ``occa`` (two-view solver),
``omcca`` (multiset solver), ``cca-baseline`` (classical CCA) and
``eval`` (re-score stored projections).  Exit codes: 0 success, 2 I/O or
parse failure (including non-finite CSV values), 3 finished at the
iteration cap (outputs still written), 4 domain error (rank deficiency,
degenerate or isolated views, bad shapes, a thread count below 1, a
tolerance that is not positive and finite, a non-finite bandwidth, a
rank tolerance outside [0, 1), a negative seed or a noise scale that is
negative or not finite for ``gen``).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import data as dio
from . import multiset, twoview, weighting
from .errors import (
    ContractViolation,
    ParseError,
    RankDeficiencyError,
    SolverFailure,
    ViewError,
)
from .scf import ScfConfig

EXIT_OK = 0
EXIT_IO = 2
EXIT_MAXITER = 3
EXIT_DOMAIN = 4


def build_parser():
    top = argparse.ArgumentParser(prog="occakit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic two-view dataset")
    gen.add_argument("--m", type=int, required=True, help="features in view X")
    gen.add_argument("--n", type=int, required=True, help="features in view Y")
    gen.add_argument("--q", type=int, required=True, help="samples")
    gen.add_argument("--lam", type=float, default=2e-4, help="noise scale")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output prefix")

    def io_flags(p):
        p.add_argument("--no-center", action="store_true", help="skip centering on load")
        p.add_argument(
            "--header",
            action="store_true",
            help="data files carry one header line (not eval --proj files, which occakit "
            "writes without one)",
        )
        p.add_argument("--seed", type=int, default=0, help="echoed into the report")
        p.add_argument("--out", required=True, help="output prefix")

    occa = sub.add_parser("occa", help="two-view orthogonal CCA")
    occa.add_argument("--x", required=True)
    occa.add_argument("--y", required=True)
    occa.add_argument("--k", type=int, required=True)
    occa.add_argument("--eps-alt", type=float, default=1e-8)
    occa.add_argument("--max-outer", type=int, default=30)
    occa.add_argument("--eps-scf", type=float, default=1e-5)
    occa.add_argument("--max-iter-scf", type=int, default=30)
    io_flags(occa)

    om = sub.add_parser("omcca", help="range-constrained multiset orthogonal CCA")
    om.add_argument("--views", nargs="+", required=True)
    om.add_argument("--k", type=int, required=True)
    om.add_argument("--scheme", choices=("gs", "jacobi"), default="gs")
    om.add_argument("--weights", default="uniform", help="uniform | tree | top:<p>")
    om.add_argument("--bandwidth", type=float, default=20.0)
    om.add_argument("--eps-outer", type=float, default=1e-6)
    om.add_argument("--max-cycles", type=int, default=100)
    om.add_argument("--eps-scf", type=float, default=1e-5)
    om.add_argument("--max-iter-scf", type=int, default=30)
    om.add_argument("--threads", type=int, default=1, help="Jacobi-cycle parallelism")
    io_flags(om)

    base = sub.add_parser("cca-baseline", help="classical CCA (principal angles)")
    base.add_argument("--x", required=True)
    base.add_argument("--y", required=True)
    base.add_argument("--k", type=int, required=True)
    base.add_argument("--rank-tol", type=float, default=None,
                      help="keep singular values above this times the largest; in [0, 1)")
    io_flags(base)

    ev = sub.add_parser("eval", help="score stored projections against data")
    ev.add_argument("--data", nargs="+", required=True)
    ev.add_argument("--proj", nargs="+", required=True)
    ev.add_argument("--weights", default="uniform")
    ev.add_argument("--bandwidth", type=float, default=20.0)
    ev.add_argument("--orthogonalize", action="store_true")
    io_flags(ev)
    return top


def _load_view(path, args):
    M = dio.load_matrix(path, header=args.header)
    if not args.no_center:
        M = dio.center(M)
    return M


def cmd_gen(args):
    spec = dio.SyntheticSpec(m=args.m, n=args.n, q=args.q, lam=args.lam, seed=args.seed)
    print(f"generating views: d_z={spec.d_z} d_w={spec.d_w} lam={spec.lam}")
    sx, sy = dio.gen_synthetic(spec)
    dio.save_matrix(sx, f"{args.out}_x.csv")
    dio.save_matrix(sy, f"{args.out}_y.csv")
    return EXIT_OK


def cmd_occa(args):
    t0 = time.perf_counter()
    s1 = _load_view(args.x, args)
    s2 = _load_view(args.y, args)
    prob = twoview.build_two_view(s1, s2)
    rep = twoview.occa_alternate(
        prob,
        args.k,
        alt_cfg=twoview.AltConfig(eps_alt=args.eps_alt, max_outer=args.max_outer),
        scf_cfg=ScfConfig(eps_scf=args.eps_scf, max_iter=args.max_iter_scf),
    )
    dio.save_matrix(rep.X, f"{args.out}_x_proj.csv")
    dio.save_matrix(rep.Y, f"{args.out}_y_proj.csv")
    payload = dio.make_report(
        solver="occa",
        k=args.k,
        objective_trace=rep.F_trace,
        grad_norms=[rep.grad_norm_final],
        gaps=[],
        iterations=rep.outer_iterations,
        termination_reason=rep.termination_reason,
        wall_time_seconds=time.perf_counter() - t0,
        seed=args.seed,
        config={
            "eps_alt": args.eps_alt,
            "max_outer": args.max_outer,
            "eps_scf": args.eps_scf,
            "max_iter_scf": args.max_iter_scf,
            "center": not args.no_center,
        },
        f_final=rep.f_final,
        xcy_min_eigs=rep.xcy_min_eigs,
    )
    dio.write_report(payload, f"{args.out}_report.json")
    print(f"occa: f={rep.f_final:.12g} ({rep.termination_reason}, {rep.outer_iterations} outer)")
    return EXIT_MAXITER if rep.termination_reason == "max_outer" else EXIT_OK


def cmd_omcca(args):
    t0 = time.perf_counter()
    prob = multiset.build_multiview([_load_view(p, args) for p in args.views])
    w = weighting.build_weights(prob, scheme=args.weights, bandwidth=args.bandwidth)
    rep = multiset.rcomcca(
        prob,
        args.k,
        w,
        cfg=multiset.OmccaConfig(
            eps_outer=args.eps_outer,
            max_cycles=args.max_cycles,
            scheme="gauss_seidel" if args.scheme == "gs" else "jacobi",
            scf_cfg=ScfConfig(eps_scf=args.eps_scf, max_iter=args.max_iter_scf),
        ),
        threads=args.threads,
    )
    for i, X in enumerate(rep.projections, start=1):
        dio.save_matrix(X, f"{args.out}_view{i}_proj.csv")
    payload = dio.make_report(
        solver="omcca",
        k=args.k,
        objective_trace=rep.g_trace,
        grad_norms=[],
        gaps=[],
        iterations=rep.cycles,
        termination_reason=rep.termination_reason,
        wall_time_seconds=time.perf_counter() - t0,
        seed=args.seed,
        config={
            "scheme": args.scheme,
            "weights": args.weights,
            "bandwidth": args.bandwidth,
            "eps_outer": args.eps_outer,
            "max_cycles": args.max_cycles,
            "eps_scf": args.eps_scf,
            "max_iter_scf": args.max_iter_scf,
            "threads": args.threads,
            "center": not args.no_center,
        },
        weight_matrix=[[float(v) for v in row] for row in w.rho],
        rho_hat=[[float(v) for v in row] for row in prob.rho_hat],
        loop_g_trace=rep.loop_g_trace,
        ds_terms_per_cycle=rep.ds_terms_per_cycle,
    )
    dio.write_report(payload, f"{args.out}_report.json")
    print(
        f"omcca: g={rep.g_trace[-1]:.12g} ({rep.termination_reason}, {rep.cycles} cycles)"
    )
    return EXIT_MAXITER if rep.termination_reason == "max_cycles" else EXIT_OK


def cmd_cca_baseline(args):
    t0 = time.perf_counter()
    s1 = _load_view(args.x, args)
    s2 = _load_view(args.y, args)
    prob = twoview.build_two_view(s1, s2)
    X1, X2, corr = twoview.classical_cca(prob, args.k, rank_tol=args.rank_tol)
    dio.save_matrix(X1, f"{args.out}_x_proj.csv")
    dio.save_matrix(X2, f"{args.out}_y_proj.csv")
    payload = dio.make_report(
        solver="cca-baseline",
        k=args.k,
        objective_trace=[float(c) for c in corr],
        grad_norms=[],
        gaps=[],
        iterations=0,
        termination_reason="direct",
        wall_time_seconds=time.perf_counter() - t0,
        seed=args.seed,
        config={"rank_tol": args.rank_tol, "center": not args.no_center},
        correlations=[float(c) for c in corr],
    )
    dio.write_report(payload, f"{args.out}_report.json")
    print(f"cca-baseline: top correlation {corr[0]:.12g}")
    return EXIT_OK


def cmd_eval(args):
    t0 = time.perf_counter()
    views = [_load_view(p, args) for p in args.data]
    projs = [dio.load_matrix(p) for p in args.proj]
    if len(views) != len(projs):
        raise ContractViolation(
            f"{len(projs)} projections supplied for {len(views)} data files"
        )
    rank_deficient = False
    if args.orthogonalize:
        fixed = []
        for P in projs:
            try:
                fixed.append(twoview.post_orthogonalize(P))
            except RankDeficiencyError:
                rank_deficient = True
                fixed.append(None)
        projs = fixed

    metrics = {
        "schema_version": dio.SCHEMA_VERSION,
        "solver": "eval",
        "k": int(projs[0].shape[1]) if projs[0] is not None else 0,
        "rank_deficient": rank_deficient,
        "orthogonalized": bool(args.orthogonalize),
        "seed": args.seed,
        "wall_time_seconds": None,
        "config": {"weights": args.weights, "bandwidth": args.bandwidth},
    }
    if rank_deficient:
        # a deficient projection cannot span k orthogonal directions;
        # report zero correlation and flag it
        metrics["total_correlation"] = 0.0
        if len(views) == 2:
            metrics["f"] = 0.0
            metrics["F"] = 0.0
    else:
        two = len(views) == 2
        prob = twoview.build_two_view(*views) if two else multiset.build_multiview(views)
        w = weighting.build_weights(prob, scheme=args.weights, bandwidth=args.bandwidth)
        metrics["total_correlation"] = multiset.total_correlation(projs, prob, w)
        if two:
            metrics["f"] = twoview.objective_f(projs[0], projs[1], prob)
            metrics["F"] = metrics["f"] ** 2
    metrics["wall_time_seconds"] = time.perf_counter() - t0
    dio.write_report(metrics, f"{args.out}_metrics.json")
    print(f"eval: total_correlation={metrics['total_correlation']:.12g}")
    return EXIT_OK


_DISPATCH = {
    "gen": cmd_gen,
    "occa": cmd_occa,
    "omcca": cmd_omcca,
    "cca-baseline": cmd_cca_baseline,
    "eval": cmd_eval,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ContractViolation, SolverFailure) as exc:
        # omcca --views and eval --data files are views 0, 1, ... in order
        files = vars(args).get("views") or vars(args).get("data")
        if isinstance(exc, ViewError) and exc.view is not None and files:
            exc = f"{files[exc.view]}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
