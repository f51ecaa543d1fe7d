"""Spans at occakit's layer boundaries, recorded from outside the package.

A ``Tracer`` replaces public functions at the module attributes through
which the package calls them (``occakit.scf.k_smallest_eigenbasis``,
``occakit.multiset.scf_solve``, ...) with wrappers that record one span
per call, and puts the originals back on exit.  Spans stay in memory as
tuples; ``layer_metrics`` turns the spans of one pass into per-layer
numbers.  Nothing under ``src/`` is touched.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict

# Above this input size today's eigensolver takes its iterative (LOBPCG)
# branch.  Kept here as a property of the input, so the count survives a
# change that removes the branch.
ITERATIVE_EIG_N = 500


def _eig_info(args, kwargs, result):
    E = args[0] if args else kwargs["E"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    n = int(E.shape[0])
    iterative = n > ITERATIVE_EIG_N and n - (k + 1) >= 3 * (k + 1)
    return {"n3": n**3 / 1e9, "iterative": int(iterative)}


def _file_bytes(args, kwargs, result, pos):
    path = args[pos] if len(args) > pos else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _scf_info(args, kwargs, result):
    return {"iters": result.iterations, "cap": int(result.termination_reason == "max_iter")}


def _rcomcca_info(args, kwargs, result):
    return {
        "cycles": result.cycles,
        "ds_terms": sum(result.ds_terms_per_cycle),
        "cap": int(result.termination_reason == "max_cycles"),
    }


def _occa_info(args, kwargs, result):
    return {"outer": result.outer_iterations, "cap": int(result.termination_reason == "max_outer")}


def _weights_info(args, kwargs, result):
    return {"pairs": len(result.selected_pairs())}


# (module whose attribute is replaced, attribute, span name, counters).
# The span name is "<layer>.<function>", the layer being the module that
# defines the function; the same function can be wrapped at several
# import sites.
SITES = [
    ("occakit.cli", "main", "cli.main", None),
    ("occakit.data", "load_matrix", "data.load_matrix", lambda a, k, r: _file_bytes(a, k, r, 0)),
    ("occakit.data", "save_matrix", "data.save_matrix", lambda a, k, r: _file_bytes(a, k, r, 1)),
    ("occakit.data", "gen_synthetic", "data.gen_synthetic", None),
    ("occakit.data", "center", "data.center", None),
    ("occakit.data", "write_report", "data.write_report", None),
    ("occakit.weighting", "build_weights", "weighting.build_weights", _weights_info),
    ("occakit.multiset", "rcomcca", "multiset.rcomcca", _rcomcca_info),
    ("occakit.multiset", "reduce_views", "multiset.reduce_views", None),
    ("occakit.multiset", "compute_Ds", "multiset.compute_Ds", None),
    ("occakit.multiset", "g_objective", "multiset.g_objective", None),
    ("occakit.multiset", "total_correlation", "multiset.total_correlation", None),
    ("occakit.multiset", "scf_solve", "scf.scf_solve", _scf_info),
    ("occakit.multiset", "align", "linalg.align", None),
    ("occakit.twoview", "build_two_view", "twoview.build_two_view", None),
    ("occakit.twoview", "occa_alternate", "twoview.occa_alternate", _occa_info),
    ("occakit.twoview", "classical_cca", "twoview.classical_cca", None),
    ("occakit.twoview", "post_orthogonalize", "twoview.post_orthogonalize", None),
    ("occakit.twoview", "objective_F", "twoview.objective_F", None),
    ("occakit.twoview", "objective_f", "twoview.objective_f", None),
    ("occakit.twoview", "grad_F", "twoview.grad_F", None),
    ("occakit.twoview", "scf_solve", "scf.scf_solve", _scf_info),
    ("occakit.twoview", "pair_align", "linalg.pair_align", None),
    ("occakit.twoview", "ensure_orthonormal", "linalg.ensure_orthonormal", None),
    ("occakit.scf", "build_E", "scf.build_E", None),
    ("occakit.scf", "k_smallest_eigenbasis", "linalg.k_smallest_eigenbasis", _eig_info),
    ("occakit.scf", "align", "linalg.align", None),
    ("occakit.scf", "ensure_orthonormal", "linalg.ensure_orthonormal", None),
    ("occakit.scf", "dist_tr", "linalg.dist_tr", None),
]

LAYERS = ("bench", "cli", "data", "weighting", "multiset", "twoview", "scf", "linalg")

# span tuple fields
ID, PARENT, NAME, START, END, INFO = range(6)


class Tracer:
    """Records spans ``(id, parent, name, start, end, info)``.

    Each thread keeps its own parent stack.  A thread that opens a span
    with an empty stack (a Jacobi worker) takes the innermost open span
    of the thread that installed the tracer as its parent, so worker
    solves nest under the ``rcomcca`` that started them.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = None
        self._saved = []

    def __enter__(self):
        self._main = threading.get_ident()
        for modname, attr, name, info in SITES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, info))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def _stack(self):
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _wrap(self, fn, name, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            start = time.perf_counter()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, parent, name, start, end,
                     info(args, kwargs, result) if info and done else None)
                )

        return traced

    def op(self, name, fn):
        """Run one workload op as a root span; returns (result, seconds)."""
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, f"bench.{name}", start, end, None))
        return result, end - start


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals (children of a Jacobi cycle overlap).  Also
    returns the overlap: summed child durations minus those unions, the
    time that concurrent children count twice."""
    children = defaultdict(list)
    for sp in spans:
        if sp[PARENT] is not None:
            children[sp[PARENT]].append((sp[START], sp[END]))
    own = {}
    overlap = 0.0
    for sp in spans:
        kids = children.get(sp[ID], ())
        covered = _covered(kids)
        own[sp[ID]] = (sp[END] - sp[START]) - covered
        overlap += sum(e - s for s, e in kids) - covered
    return own, overlap


def _caller(span, by_id, wanted, memo):
    """Name of the nearest strict ancestor of ``span`` whose name is in
    ``wanted``, or None.  ``memo`` maps a span id to the answer for that
    span and its ancestors, the span itself included."""
    chain = []
    cur = by_id.get(span[PARENT])
    found = None
    while cur is not None:
        if cur[ID] in memo:
            found = memo[cur[ID]]
            break
        chain.append(cur[ID])
        if cur[NAME] in wanted:
            found = cur[NAME]
            break
        cur = by_id.get(cur[PARENT])
    for sid in chain:
        memo[sid] = found
    return found


def layer_metrics(spans):
    """Per-layer numbers of one traced pass."""
    own, overlap = self_times(spans)
    by_id = {sp[ID]: sp for sp in spans}
    time_by = defaultdict(float)
    self_by = defaultdict(float)
    calls = defaultdict(int)
    info_sum = defaultdict(float)
    for sp in spans:
        name = sp[NAME]
        time_by[name] += sp[END] - sp[START]
        self_by[name] += own[sp[ID]]
        calls[name] += 1
        for key, val in (sp[INFO] or {}).items():
            info_sum[(name, key)] += val

    def total_self(*names):
        return sum(self_by[n] for n in names)

    layer_self = defaultdict(float)
    for name, val in self_by.items():
        layer_self[name.split(".", 1)[0]] += val

    # per-call eigensolve cost by calling solver, and the parallel ratio
    solvers = {"twoview.occa_alternate", "multiset.rcomcca"}
    memo = {}
    eig_us = defaultdict(list)
    rcomcca_scf = 0.0
    for sp in spans:
        if sp[NAME] == "linalg.k_smallest_eigenbasis":
            who = _caller(sp, by_id, solvers, memo)
            if who:
                eig_us[who].append((sp[END] - sp[START]) * 1e6)
        elif sp[NAME] == "scf.scf_solve":
            if _caller(sp, by_id, solvers, memo) == "multiset.rcomcca":
                rcomcca_scf += sp[END] - sp[START]

    scf_iters = info_sum[("scf.scf_solve", "iters")]
    traced_wall = sum(sp[END] - sp[START] for sp in spans if sp[NAME].startswith("bench."))
    m = {
        "data.load_s": time_by["data.load_matrix"],
        "data.load_calls": calls["data.load_matrix"],
        "data.load_mb": info_sum[("data.load_matrix", "bytes")] / 1e6,
        "data.save_s": time_by["data.save_matrix"],
        "data.save_calls": calls["data.save_matrix"],
        "data.save_mb": info_sum[("data.save_matrix", "bytes")] / 1e6,
        "data.gen_s": time_by["data.gen_synthetic"],
        "cli.self_s": self_by["cli.main"],
        "weighting.build_s": time_by["weighting.build_weights"],
        "weighting.pairs": info_sum[("weighting.build_weights", "pairs")],
        "multiset.reduce_s": self_by["multiset.reduce_views"],
        "multiset.cycles": info_sum[("multiset.rcomcca", "cycles")],
        "multiset.ds_terms": info_sum[("multiset.rcomcca", "ds_terms")],
        "multiset.cap_hits": info_sum[("multiset.rcomcca", "cap")],
        "multiset.compute_ds_s": self_by["multiset.compute_Ds"],
        "multiset.compute_ds_calls": calls["multiset.compute_Ds"],
        "multiset.self_s": self_by["multiset.rcomcca"],
        "multiset.objective_s": total_self("multiset.g_objective", "multiset.total_correlation"),
        "multiset.parallel_ratio": (
            rcomcca_scf / time_by["multiset.rcomcca"] if time_by["multiset.rcomcca"] else 0.0
        ),
        "twoview.build_s": self_by["twoview.build_two_view"],
        "twoview.outer_iters": info_sum[("twoview.occa_alternate", "outer")],
        "twoview.cap_hits": info_sum[("twoview.occa_alternate", "cap")],
        "twoview.self_s": total_self(
            "twoview.occa_alternate", "twoview.objective_F", "twoview.objective_f", "twoview.grad_F"
        ),
        "twoview.baseline_s": total_self("twoview.classical_cca", "twoview.post_orthogonalize"),
        "scf.solve_calls": calls["scf.scf_solve"],
        "scf.solve_s": time_by["scf.scf_solve"],
        "scf.iters": scf_iters,
        "scf.cap_hits": info_sum[("scf.scf_solve", "cap")],
        "scf.us_per_iter": time_by["scf.scf_solve"] / scf_iters * 1e6 if scf_iters else 0.0,
        "scf.self_s": self_by["scf.scf_solve"],
        "scf.build_e_s": self_by["scf.build_E"],
        "linalg.eig_s": self_by["linalg.k_smallest_eigenbasis"],
        "linalg.eig_calls": calls["linalg.k_smallest_eigenbasis"],
        "linalg.eig_calls_iterative": info_sum[("linalg.k_smallest_eigenbasis", "iterative")],
        "linalg.eig_us.twoview": statistics.median(eig_us["twoview.occa_alternate"] or [0.0]),
        "linalg.eig_us.multiset": statistics.median(eig_us["multiset.rcomcca"] or [0.0]),
        "linalg.eig_gn3": info_sum[("linalg.k_smallest_eigenbasis", "n3")],
        "linalg.align_s": total_self("linalg.align", "linalg.pair_align"),
        "linalg.cert_s": self_by["linalg.dist_tr"],
        "linalg.orth_s": self_by["linalg.ensure_orthonormal"],
        "run.traced_wall_s": traced_wall,
        "run.parallel_overlap_s": overlap,
        # self times minus the overlap add up to the traced wall time; this
        # is what is left over (rounding only)
        "run.self_gap_s": traced_wall - (sum(layer_self.values()) - overlap),
    }
    for layer in LAYERS:
        m[f"layer.{layer}_s"] = layer_self[layer]
    return m


def span_table(spans):
    """Calls, total and self seconds per span name, for the run log."""
    own, _ = self_times(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for sp in spans:
        row = rows[sp[NAME]]
        row[0] += 1
        row[1] += sp[END] - sp[START]
        row[2] += own[sp[ID]]
    return {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in sorted(rows.items())}
