"""The benchmark harness behind ``run.py``: set-up timing, the timed
repetitions, output checks, metrics and provenance (see README.md)."""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

import numpy as np

import tracing
import workloads
from selkd import cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".perfbench_work"
SETUP_PROBES = 7


def _parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description="selkd benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="only import and generate inputs (timed by the parent for setup_s)")
    return p.parse_args(argv)


def _invoke(argv) -> int:
    """``selkd.cli.main`` in-process, its stderr kept unless the call fails."""
    log = io.StringIO()
    try:
        with contextlib.redirect_stderr(log):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the flags
        code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        sys.stderr.write(f"perfbench: selkd {' '.join(argv)} exited {code}\n{log.getvalue()}")
    return code


def _run_once(workload, calls, reference: dict) -> tuple[float, int, list[str]]:
    """One timed repetition: (wall seconds, stage directories checked, one
    problem per stage directory that failed a check)."""
    shutil.rmtree(workload.run, ignore_errors=True)
    start = perf_counter()
    codes = [_invoke(call.argv) for call in calls]
    wall = perf_counter() - start
    checked, failed = 0, []
    for call, code in zip(calls, codes):
        for stage in call.outputs:
            checked += 1
            found = [f"{stage.path}: exit code {code}"] if code else workloads.check_stage(stage)
            if not found:
                snap = workloads.snapshot(stage.path)
                if reference.setdefault(stage.path, snap) != snap:
                    found = [f"{stage.path}: not byte-identical to the first run"]
            if found:
                failed.append("; ".join(found))
    return wall, checked, failed


def _measure(workload, calls, reference: dict, seconds: float, tracer):
    """Repeat the workload until ``seconds`` have passed. With a tracer,
    repetitions alternate untraced and traced, starting untraced, and at
    least one of each runs."""
    walls, traced_walls = [], []
    attempted, failed = 0, []
    deadline = perf_counter() + seconds
    rep = 0
    while not walls or perf_counter() < deadline or (tracer and not traced_walls):
        if tracer and rep % 2:
            tracer.run_id = rep
            with tracer:
                wall, checked, found = _run_once(workload, calls, reference)
            traced_walls.append(wall)
        else:
            wall, checked, found = _run_once(workload, calls, reference)
            walls.append(wall)
        attempted += checked
        failed += found
        rep += 1
    return walls, traced_walls, attempted, failed


def _setup_seconds(args) -> float:
    """Median over fresh processes of the time from spawn until they have
    imported selkd and generated the workload's inputs. Each process prints
    the wall-clock time it finished at, because waiting on a child with a
    timeout polls in steps of up to 50 ms."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.time()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
                              check=True, timeout=120, cwd=ROOT, capture_output=True, text=True)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples)


def _reference_path(workload, calls) -> str:
    """First-run digests are kept per workload, seed, inputs and selkd
    source, so a later process in the same checkout is checked against them."""
    h = hashlib.sha256(json.dumps([[c.argv for c in calls], workloads.snapshot(workload.inputs)]).encode())
    for path in sorted(glob.glob(os.path.join("src", "selkd", "*.py"))):
        h.update(path.encode())
        h.update(workloads.sha256(path).encode())
    return os.path.join(WORK, workload.name, f"reference-seed{workload.seed}-{h.hexdigest()[:16]}.json")


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> tuple[str, int | None]:
    """BLAS library numpy was built with, and its thread count when the
    library can be asked (numpy's bundled OpenBLAS)."""
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    env = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return name, int(env) if env.isdigit() else None


def _provenance(workload, args) -> dict:
    blas, blas_threads = _blas()
    out = {
        "workload": workload.name, "seed": args.seed, "confirm_seed": workloads.CONFIRM_SEED,
        "seconds": args.seconds, "trace": args.trace, "git_commit": _git_commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": blas_threads, "nproc": len(os.sched_getaffinity(0)),
        "calls": [list(c.argv) for c in workload.calls()],
    }
    if hasattr(workload, "heldout_seed"):
        out["heldout_set_seed"] = workload.heldout_seed
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.setup_only:
        probe = os.path.join(WORK, args.workload, "setup-probe")
        shutil.rmtree(probe, ignore_errors=True)
        workloads.WORKLOADS[args.workload](args.seed, probe).setup()
        print(time.time())
        return 0

    workload = workloads.WORKLOADS[args.workload](args.seed, os.path.join(WORK, args.workload))
    shutil.rmtree(workload.inputs, ignore_errors=True)
    workload.setup()
    provenance = _provenance(workload, args)
    if provenance["blas_threads"] is not None and provenance["blas_threads"] > provenance["nproc"]:
        print(f"perfbench: {provenance['blas_threads']} BLAS threads exceed nproc "
              f"{provenance['nproc']}; set OPENBLAS_NUM_THREADS", file=sys.stderr)
        return 2

    calls = workload.calls()
    ref_path = _reference_path(workload, calls)
    reference = {}
    if os.path.exists(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            reference = json.load(fh)
    tracer = tracing.Tracer() if args.trace else None
    walls, traced_walls, attempted, failed = _measure(workload, calls, reference, args.seconds, tracer)
    if not failed and not os.path.exists(ref_path):
        with open(ref_path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
    for problem in failed:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    wall_s = statistics.median(walls)
    if tracer:
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_s"] = _metric(statistics.median(traced_walls) - wall_s, "s")
        with open(os.path.join(WORK, workload.name, f"trace-seed{args.seed}.jsonl"), "w",
                  encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        pairs = workload.pairs()
        metrics = {
            # Fresh processes, timed after the repetitions so they do not
            # disturb the first one.
            "setup_s": _metric(_setup_seconds(args), "s"),
            "wall_s": _metric(wall_s, "s"),
            "pairs_per_s": _metric(statistics.median(pairs / w for w in walls), "pairs/s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ops_ratio": _metric((attempted - len(failed)) / attempted, "ratio"),
            # The outputs of a failed run may be missing; its quality reads 0.
            "quality": _metric(workload.quality() if not failed else 0.0, "%"),
        }
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    provenance["repetitions"] = {"untraced_wall_s": walls, "traced_wall_s": traced_walls}
    with open(os.path.join(WORK, workload.name, f"result-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "result": result}, fh, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0

