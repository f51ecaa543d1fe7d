"""Runs one workload for a fixed time and assembles the result line.

An untraced run (``trace=False``) reports the end-to-end metrics.  A
traced run first measures untraced passes for half the time, then traced
passes for the other half, and reports the per-layer metrics; the
difference of the two median pass times is ``run.trace_overhead_s``.
Every number that varies between passes is the median over the passes.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

from perfbench import checks, tracing
from perfbench.workloads import WORKLOADS, Pass

# set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "omcca_s": "s",
    "omcca_g": "1",
    "kkt_digits": "digits",
    "peak_rss_mb": "MB",
}

# per-layer units other than seconds ("_s"), megabytes ("_mb") and counts
PER_LAYER_UNITS = {
    "linalg.eig_us.twoview": "us",
    "linalg.eig_us.multiset": "us",
    "scf.us_per_iter": "us",
    "linalg.eig_gn3": "n3/1e9",
    "multiset.parallel_ratio": "1",
    "op.occa_f": "1",
    "op.occa_kkt": "1",
    "op.omcca_kkt": "1",
}


def per_layer_unit(name):
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


class WarningCounter:
    """Counts every warning that reaches the harness, then shows it as
    usual.  Nothing is filtered: the "always" action defeats the
    once-per-location registry, so repeats are counted too."""

    def __init__(self):
        self.count = 0
        self._saved = warnings.catch_warnings()
        self._show = None

    def __enter__(self):
        self._saved.__enter__()
        self._show = warnings.showwarning
        warnings.showwarning = self
        return self

    def __exit__(self, *exc):
        return self._saved.__exit__(*exc)

    def __call__(self, message, category, filename, lineno, file=None, line=None):
        self.count += 1
        self._show(message, category, filename, lineno, file, line)

    def reset(self):
        # a racing warnings.catch_warnings in a worker thread can leave an
        # "ignore" filter installed; every pass starts from "always"
        warnings.resetwarnings()
        warnings.simplefilter("always")
        self.count = 0


def environment():
    """Machine and library facts that set the noise floor of a run."""
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "env": {v: os.environ.get(v) for v in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OCCA_KIT_THREADS")},
        "pinning": "no CPU pinning, no cache dropping",
    }


def _one_pass(wl, state, ref, scratch, counter, tracer=None):
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        counter.reset()
        p = Pass(tracer)
        if tracer is None:
            wl.run_pass(state, p, workdir)
        else:
            with tracer:
                wl.run_pass(state, p, workdir)
        p.warnings = counter.count
        wl.check(state, ref, p, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return p


def _measure(wl, state, ref, scratch, counter, seconds, traced):
    """At least one pass, then more while the next one, taking the median
    time of those so far, is expected to end within ``seconds``."""
    passes = []
    took = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(took) <= seconds:
        tracer = tracing.Tracer() if traced else None
        begin = time.perf_counter()
        p = _one_pass(wl, state, ref, scratch, counter, tracer)
        took.append(time.perf_counter() - begin)
        if traced:
            p.layers = tracing.layer_metrics(tracer.spans)
            p.span_table = tracing.span_table(tracer.spans)
        passes.append(p)
    return passes


def _median(passes, fn):
    return statistics.median(fn(p) for p in passes)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def run(name, seed, seconds, trace, import_s, root, size="FULL"):
    """Run workload ``name``; returns the result object of the run."""
    wl = WORKLOADS[name]
    scratch_root = root / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        with WarningCounter() as counter:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                state = wl.setup(seed, getattr(wl, size))
                _warm_up(wl, seed, scratch)
                setup_times.append(time.perf_counter() - start)
            ref = wl.reference(state)
            if not trace:
                passes = _measure(wl, state, ref, scratch, counter, seconds, traced=False)
                traced = []
            else:
                passes = _measure(wl, state, ref, scratch, counter, seconds / 2, traced=False)
                traced = _measure(wl, state, ref, scratch, counter, seconds / 2, traced=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    everything = passes + traced
    first = everything[0].digests
    for i, p in enumerate(everything):
        # outputs must be byte-identical across the passes of one run
        for key in sorted(set(p.digests) | set(first)):
            if p.digests.get(key) != first.get(key):
                p.check(key, "output differs from the first pass")
        for op_name, found in p.problems.items():
            for msg in found:
                print(f"check failed: pass {i} {op_name}: {msg}", file=sys.stderr)
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)

    if not trace:
        values = {
            "wall_s": _median(passes, lambda p: p.seconds["wall"]),
            "setup_s": import_s + statistics.median(setup_times),
            "omcca_s": _median(passes, lambda p: p.seconds["omcca"]),
            "omcca_g": _median(passes, lambda p: _mean(p.facts["omcca_g"])),
            "kkt_digits": _median(passes, lambda p: _mean(
                [checks.digits(r) for r in p.facts["occa_kkt"] + p.facts["omcca_kkt"]])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    else:
        untraced_wall = _median(passes, lambda p: p.seconds["wall"])
        values = {
            key: _median(traced, lambda p: p.layers[key]) for key in traced[0].layers
        }
        values.update({
            "run.untraced_wall_s": untraced_wall,
            "run.trace_overhead_s": values["run.traced_wall_s"] - untraced_wall,
            "run.warnings": _median(everything, lambda p: p.warnings),
            "op.occa_s": _median(passes, lambda p: p.seconds["occa"]),
            "op.baseline_s": _median(passes, lambda p: p.seconds["baseline"]),
            "op.eval_s": _median(passes, lambda p: p.seconds["eval"]),
            "op.occa_f": _median(passes, lambda p: _mean(p.facts["occa_f"])),
            "op.occa_kkt": _median(passes, lambda p: max(p.facts["occa_kkt"], default=0.0)),
            "op.omcca_kkt": _median(passes, lambda p: max(p.facts["omcca_kkt"], default=0.0)),
        })
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(values.items())}
        print("spans of the last traced pass: "
              + json.dumps(traced[-1].span_table, sort_keys=True), file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _warm_up(wl, seed, scratch):
    """One reduced-size pass, unchecked: lazy imports and first-call costs."""
    state = wl.setup(seed, wl.SMOKE)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        wl.run_pass(state, Pass(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
