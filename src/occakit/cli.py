"""Command-line entry point.

Commands: ``gen`` (synthetic two-view data), ``occa`` (two-view solver),
``omcca`` (multiset solver), ``cca-baseline`` (classical CCA) and ``eval``
(re-score stored projections).  Exit codes: 0 success, 2 I/O or parse failure
(including non-finite CSV values), 3 finished at the iteration cap (outputs
still written), 4 domain error (rank deficiency, degenerate, isolated or,
under ``--no-center``, uncentered views, views on different sample counts, bad
shapes, a tolerance that is not positive and finite, a non-finite bandwidth, a
rank tolerance outside [0, 1), a negative seed, a noise scale that is
negative, not finite or so large that ``gen``'s views overflow, or data that
leave the floating-point range: "rescale the data" or "rescale D") or a LAPACK
failure.  Flag defaults are those of the solver configs and ``weighting``.
Messages call the i-th data file "view i", counting from 0; ``omcca`` writes
view i's projection to ``<out>_view{i+1}_proj.csv``, counting from 1.
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

# termination reasons of a solve stopped at its iteration cap (exit 3)
_CAPS = ("max_outer", "max_cycles")


def build_parser():
    top = argparse.ArgumentParser(prog="occakit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic two-view dataset")
    gen.add_argument("--m", type=int, required=True, help="features in view X")
    gen.add_argument("--n", type=int, required=True, help="features in view Y")
    gen.add_argument("--q", type=int, required=True, help="samples")
    gen.add_argument("--lam", type=float, default=dio.SyntheticSpec.lam, help="noise scale")
    gen.add_argument("--seed", type=int, default=dio.SyntheticSpec.seed)
    gen.add_argument("--out", required=True, help="output prefix")

    def scf_flags(p):
        p.add_argument("--eps-scf", type=float, default=ScfConfig.eps_scf)
        p.add_argument("--max-iter-scf", type=int, default=ScfConfig.max_iter)

    def io_flags(p):
        p.add_argument(
            "--no-center", dest="center", action="store_false", help="skip centering on load"
        )
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
    occa.add_argument("--eps-alt", type=float, default=twoview.AltConfig.eps_alt)
    occa.add_argument("--max-outer", type=int, default=twoview.AltConfig.max_outer)
    scf_flags(occa)
    io_flags(occa)

    om = sub.add_parser("omcca", help="range-constrained multiset orthogonal CCA")
    om.add_argument("--views", nargs="+", required=True)
    om.add_argument("--k", type=int, required=True)
    om.add_argument("--scheme", choices=("gs", "jacobi"), default="gs")
    om.add_argument("--weights", default="uniform", help="uniform | tree | top:<p>")
    om.add_argument("--bandwidth", type=float, default=weighting.BANDWIDTH)
    om.add_argument("--eps-outer", type=float, default=multiset.OmccaConfig.eps_outer)
    om.add_argument("--max-cycles", type=int, default=multiset.OmccaConfig.max_cycles)
    scf_flags(om)
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
    ev.add_argument("--bandwidth", type=float, default=weighting.BANDWIDTH)
    ev.add_argument("--orthogonalize", action="store_true")
    io_flags(ev)
    return top


def _load_views(args, paths):
    """The data files in order, each centered on load unless ``--no-center``."""
    center = dio.center if args.center else (lambda M: M)
    return [center(dio.load_matrix(path, header=args.header)) for path in paths]


def _write_outputs(args, t0, projections, config, line, /, kind="report", **payload):
    """Save each projection as ``<out>_{key}_proj.csv``; write ``payload``,
    stamped with the solver, schema version, seed, the ``config`` options
    and the wall time since ``t0``, to ``<out>_{kind}.json``; print
    ``line``.  Returns exit code 3 for a solve stopped at its cap, else 0."""
    for key, X in projections.items():
        dio.save_matrix(X, f"{args.out}_{key}_proj.csv")
    payload.update(
        schema_version=dio.SCHEMA_VERSION,
        solver=args.command,
        seed=args.seed,
        config={option: getattr(args, option) for option in config},
        wall_time_seconds=time.perf_counter() - t0,
    )
    dio.write_report(payload, f"{args.out}_{kind}.json")
    print(line)
    return EXIT_MAXITER if payload.get("termination_reason") in _CAPS else EXIT_OK


def cmd_gen(args):
    spec = dio.SyntheticSpec(m=args.m, n=args.n, q=args.q, lam=args.lam, seed=args.seed)
    print(f"generating views: d_z={spec.d_z} d_w={spec.d_w} lam={spec.lam}")
    sx, sy = dio.gen_synthetic(spec)
    dio.save_matrix(sx, f"{args.out}_x.csv")
    dio.save_matrix(sy, f"{args.out}_y.csv")
    return EXIT_OK


def cmd_occa(args):
    t0 = time.perf_counter()
    rep = twoview.occa_alternate(
        multiset.build_multiview(_load_views(args, [args.x, args.y])),
        args.k,
        alt_cfg=twoview.AltConfig(eps_alt=args.eps_alt, max_outer=args.max_outer),
        scf_cfg=ScfConfig(eps_scf=args.eps_scf, max_iter=args.max_iter_scf),
    )
    return _write_outputs(
        args, t0, {"x": rep.X, "y": rep.Y},
        ("eps_alt", "max_outer", "eps_scf", "max_iter_scf", "center"),
        f"occa: f={rep.f_final:.12g} ({rep.termination_reason}, {rep.outer_iterations} outer)",
        k=args.k, objective_trace=rep.F_trace, grad_norms=[rep.grad_norm_final], gaps=[],
        iterations=rep.outer_iterations, termination_reason=rep.termination_reason,
        f_final=rep.f_final, xcy_min_eigs=rep.xcy_min_eigs,
    )


def cmd_omcca(args):
    t0 = time.perf_counter()
    prob = multiset.build_multiview(_load_views(args, args.views))
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
    )
    return _write_outputs(
        args, t0, {f"view{i}": X for i, X in enumerate(rep.projections, start=1)},
        ("scheme", "weights", "bandwidth", "eps_outer", "max_cycles", "eps_scf",
         "max_iter_scf", "center"),
        f"omcca: g={rep.g_trace[-1]:.12g} ({rep.termination_reason}, {rep.cycles} cycles)",
        k=args.k, objective_trace=rep.g_trace, grad_norms=[], gaps=[],
        iterations=rep.cycles, termination_reason=rep.termination_reason,
        weight_matrix=w.rho.tolist(), rho_hat=prob.rho_hat.tolist(),
        loop_g_trace=rep.loop_g_trace, ds_terms_per_cycle=rep.ds_terms_per_cycle,
    )


def cmd_cca_baseline(args):
    t0 = time.perf_counter()
    prob = multiset.build_multiview(_load_views(args, [args.x, args.y]))
    X1, X2, corr = twoview.classical_cca(prob, args.k, rank_tol=args.rank_tol)
    return _write_outputs(
        args, t0, {"x": X1, "y": X2}, ("rank_tol", "center"),
        f"cca-baseline: top correlation {corr[0]:.12g}",
        k=args.k, objective_trace=corr.tolist(), grad_norms=[], gaps=[],
        iterations=0, termination_reason="direct", correlations=corr.tolist(),
    )


def cmd_eval(args):
    t0 = time.perf_counter()
    views = _load_views(args, args.data)
    projs = [dio.load_matrix(p) for p in args.proj]
    if len(views) != len(projs):
        raise ContractViolation(
            f"{len(projs)} projections supplied for {len(views)} data files"
        )
    prob = multiset.build_multiview(views)
    w = weighting.build_weights(prob, scheme=args.weights, bandwidth=args.bandwidth)
    rank_deficient = False
    try:
        # every projection is checked as given, orthogonalized or not
        total = multiset.total_correlation(projs, prob, w)
        if args.orthogonalize:
            orth = [twoview.post_orthogonalize(P) for P in projs]
            total = multiset.total_correlation(orth, prob, w)
    except RankDeficiencyError:
        # a deficient projection cannot span k orthogonal directions;
        # report zero correlation and flag it
        rank_deficient, total = True, 0.0
    except ViewError as exc:
        # the index names a projection here, so the --proj file is at fault
        raise type(exc)(f"{args.proj[exc.view]}: {exc}") from exc

    # every scheme weighs the one pair of two views exactly 1, so f is objective_f
    pair = {"f": total / 2, "F": (total / 2) ** 2} if len(views) == 2 else {}
    return _write_outputs(
        args, t0, {}, ("weights", "bandwidth"), f"eval: total_correlation={total:.12g}",
        kind="metrics", k=int(projs[0].shape[1]), rank_deficient=rank_deficient,
        orthogonalized=bool(args.orthogonalize), total_correlation=total, **pair,
    )


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
        # --x/--y, omcca --views and eval --data files are views 0, 1, ... in order
        opts = vars(args)
        files = opts.get("views") or opts.get("data") or [opts.get("x"), opts.get("y")]
        if isinstance(exc, ViewError) and exc.view is not None and files[exc.view]:
            exc = f"{files[exc.view]}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
