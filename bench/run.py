"""Benchmark of the textexplain program: training, hybrid-document and
agreement pointing games, each a seeded workload run in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-reference

Run from a checkout that holds ``src/textexplain``. Standard output gets an
``env`` line, a human-readable report, and as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced pass (spans are written to ``.bench_work/spans-<workload>.jsonl``).
The exit code is 0 when every check passed, 1 when an output check or the
reference comparison failed, and 2 when the program cannot be run at all.
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help=f"write {REFERENCE.name} from the current program")
    args = p.parse_args(argv)
    if not args.record_reference and args.workload is None:
        p.error("--workload is required")
    return args


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_info(np) -> tuple[str, int | None]:
    """BLAS name and version from numpy's build config, and the thread count
    the loaded OpenBLAS reports (None when it cannot be asked)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def environment() -> dict:
    import numpy as np
    import scipy
    blas, threads = blas_info(np)
    return {"commit": git_commit(), "src_sha256": source_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
            "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine()}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_units(workload, state, indices, tracer=None):
    results = []
    for i in indices:
        t0 = perf_counter()
        res = workload.run_unit(state, i % workload.n_units(state), tracer)
        res.seconds = perf_counter() - t0
        results.append(res)
    return results


def timed_loop(workload, state, seconds: float):
    """Run whole work units until ``seconds`` have passed."""
    results = []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        results += run_units(workload, state, [len(results)])
    return results


def end_to_end(setups, results, rss_mb):
    """Timings are medians, since the host's speed drifts in phases: of the
    per-unit work rates, and of each model's pair latencies (averaged over
    models, whose costs differ several-fold). 0 marks a run where every
    pair failed."""
    per_model: dict[str, list[float]] = {}
    for res in results:
        for name, dt in res.latencies:
            per_model.setdefault(name, []).append(dt)
    medians = [statistics.median(v) for v in per_model.values()]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": (statistics.median(
            r.work / r.seconds for r in results), "1/s"),
        "pair_ms_p50": (1e3 * statistics.fmean(medians) if medians else 0.0,
                        "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, per_model


def print_report(workload, args, metrics, per_model, results, attempted,
                 failed):
    """Human-readable summary, naming the throughput and latency after the
    workload's kind (train_examples_per_s, eval_docs_per_s, doc_ms_p50)."""
    work = ("train_examples_per_s" if workload.name == "train_keyword"
            else "eval_docs_per_s")
    n_pairs = sum(len(v) for v in per_model.values())
    p90 = "n/a (needs >= 100 pairs per model)"
    if per_model and min(len(v) for v in per_model.values()) >= 100:
        p90 = "%.3f ms" % (1e3 * statistics.fmean(
            statistics.quantiles(v, n=10)[-1] for v in per_model.values()))
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds:g}")
    print(f"setup_s              {metrics['setup_s'][0]:.4f} s "
          f"(median of {SETUP_REPEATS} set-ups)")
    total = sum(r.seconds for r in results)
    print(f"{work:<20} {metrics['throughput_per_s'][0]:.4f} 1/s (median of "
          f"{len(results)} units; {sum(r.work for r in results) / total:.4f}"
          f" over the whole {total:.1f} s loop)")
    print(f"doc_ms_p50           {metrics['pair_ms_p50'][0]:.3f} ms "
          f"(mean of per-model medians, {n_pairs} pairs)")
    print(f"doc_ms_p90           {p90}")
    print(f"peak_rss_mb          {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"failed_frac          {failed / max(attempted, 1):.4f} ratio "
          f"({failed} of {attempted} operations)")
    for name, v in per_model.items():
        print(f"  {name:<12} pairs={len(v):<4} "
              f"p50={1e3 * statistics.median(v):.3f} ms")


def check_reference(workloads, workload, state, workdir: Path):
    want = json.loads(REFERENCE.read_text())[workload.name]
    workdir.mkdir(parents=True)
    got = workload.reference(state, workdir)
    attempted, problems = workloads.compare_reference(got, want)
    for msg in problems:
        print(f"reference mismatch: {msg}", file=sys.stderr)
    return attempted, len(problems)


def run(args, workloads, tracer_mod) -> int:
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env))
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            state, metrics, results = traced(workload, args, workdir,
                                             tracer_mod, workloads, env)
        else:
            state, metrics, results, per_model = untraced(workload, args,
                                                          workdir)
        ref_attempted, ref_failed = check_reference(
            workloads, workload, state, workdir / "reference")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.attempted for r in results) + ref_attempted
    failed = sum(r.failed for r in results) + ref_failed
    if not args.trace:
        print_report(workload, args, metrics, per_model, results, attempted,
                     failed)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


def untraced(workload, args, workdir):
    """Set up SETUP_REPEATS times (the last state is used), then run work
    units for ``--seconds``."""
    setups = []
    for r in range(SETUP_REPEATS):
        wdir = workdir / f"setup{r}"
        wdir.mkdir()
        t0 = perf_counter()
        state = workload.setup(args.seed, wdir)
        setups.append(perf_counter() - t0)
    results = timed_loop(workload, state, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics, per_model = end_to_end(setups, results, rss_mb)
    return state, metrics, results, per_model


def traced(workload, args, workdir, tracer_mod, workloads, env):
    """Set up once with tracing, then run a fixed number of work units, each
    once untraced and once traced. The count is sized so each pass takes
    about half of ``--seconds`` on the unoptimised code, so per-layer totals
    of two versions cover the same work."""
    tracer = tracer_mod.Tracer()
    tracer.doc = tracer_mod.SETUP
    tracer.install()
    try:
        state = workload.setup(args.seed, workdir)
    finally:
        tracer.uninstall()
    n = max(1, round(args.seconds / 2 / workload.unit_seconds))
    plain, results = [], []
    for i in range(n):           # alternate, so both see the same host load
        plain += run_units(workload, state, [i])
        tracer.install()
        try:
            results += run_units(workload, state, [i], tracer)
        finally:
            tracer.uninstall()
    untraced_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in results)
    metrics = tracer_mod.layer_metrics(tracer.spans, workloads.ALL_METHODS)
    metrics["evaluate.docs_skipped"] = (sum(r.skipped for r in results),
                                        "count")
    metrics["evaluate.docs_evaluated"] = (sum(r.evaluated for r in results),
                                          "count")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    out = WORK / f"spans-{workload.name}.jsonl"
    tracer_mod.write_spans(out, tracer, {
        "env": env, "workload": workload.name, "seed": args.seed,
        "units": n, "absent": tracer.absent, "unnamed": tracer.unnamed})
    print(f"trace: {len(tracer.spans)} spans over {n} units -> "
          f"{out.relative_to(ROOT)}; absent: {tracer.absent or 'none'}")
    return state, metrics, plain + results


def format_reference(out: dict) -> str:
    """JSON with one line per (workload, section, model) entry."""
    blocks = []
    for name, ref in out.items():
        sections = []
        for key, per_model in ref.items():
            rows = ",\n".join(f"   {json.dumps(m)}: {json.dumps(v)}"
                              for m, v in per_model.items())
            sections.append(f"  {json.dumps(key)}: {{\n{rows}\n  }}")
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(sections)
                      + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def record_reference(workloads) -> int:
    """Write the reference outputs of every workload; the eval workloads'
    references use the models of a set-up on REFERENCE_SEED."""
    out = {}
    workdir = WORK / f"reference-{os.getpid()}"
    try:
        for name, workload in workloads.WORKLOADS.items():
            wdir = workdir / name
            wdir.mkdir(parents=True)
            state = workload.setup(workloads.REFERENCE_SEED, wdir)
            out[name] = workload.reference(state, wdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(format_reference(out))
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "textexplain" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC.relative_to(ROOT)}/"
              "textexplain; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:         # d = 16 matvecs gain nothing from threads
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]
    import textexplain
    if not Path(textexplain.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported textexplain from {textexplain.__file__}",
              file=sys.stderr)
        return 2
    import tracer
    import workloads
    if args.record_reference:
        return record_reference(workloads)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run(args, workloads, tracer)


if __name__ == "__main__":
    sys.exit(main())
