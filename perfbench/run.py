"""moransar benchmark: one workload, closed loop, one client, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze-spectral --seed 1 --seconds 30 --trace 0

Runs ops one at a time in this process until --seconds have passed, checks
every op's output, and prints each metric with its unit; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 each op runs untraced and then traced with the same inputs, and the
metrics are the per-layer ones (see perfbench/README.md). Scratch files go
to .bench_out/ under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SPAWNS = 3
TAIL_BEYOND = 10
IMPORT_PROBE = ("import time; t = time.perf_counter(); import moransar.cli; "
                "print(time.perf_counter() - t)")


def measure_setup(spawns: int) -> float:
    """Median cold import time of moransar.cli, one fresh interpreter each."""
    times = []
    for _ in range(spawns):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def tail(durations: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the op-time tail.

    The nearest-rank percentile with TAIL_BEYOND samples beyond it, or the
    90th when fewer than 10 * TAIL_BEYOND ops leave fewer beyond that one,
    so the percentile moves smoothly as the op count changes.
    """
    ordered = sorted(durations)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, math.ceil(0.9 * n))
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def run(workload, seed: int, seconds: float, trace: bool, work: Path,
        setup_spawns: int = SETUP_SPAWNS) -> dict:
    """Run one workload; returns metrics, op counts and provenance."""
    # imported here, after prepare() has set the BLAS thread variables
    import tracer as tracer_mod
    from workloads import peak_rss_kb

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_s = None if trace else measure_setup(setup_spawns)
    tracer = tracer_mod.Tracer() if trace else None
    durations, traced_durations, untraced_durations = [], [], []
    digests, failures = [], []
    attempted = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        k = attempted
        attempted += 1
        problems: list[str] = []
        inputs = workload.make(seed, k, work)
        digests.append(inputs.sha256)
        try:
            run_op = workload.call if trace else workload.op
            t0 = time.perf_counter()
            output = run_op(inputs, work / f"out{k}")
            durations.append(time.perf_counter() - t0)
            problems += workload.check(inputs, output)
            if trace:
                tracer.install()
                try:
                    tracer.begin_op(k)
                    t0 = time.perf_counter()
                    again = workload.call(inputs, work / f"traced{k}")
                    traced_durations.append(time.perf_counter() - t0)
                    tracer.end_op()
                finally:
                    tracer.uninstall()
                untraced_durations.append(durations[-1])
                if workload.fingerprint(again) != workload.fingerprint(output):
                    problems.append("traced repeat gave a different report")
        except Exception as exc:  # an op that raises is a failed op, not a crash
            problems.append(f"raised {type(exc).__name__}: {exc}")
        if problems:
            failures.append((k, problems))

    if not durations or (trace and not traced_durations):
        raise RuntimeError(f"no op completed: {failures[:3]}")
    if trace:
        overhead = sum(traced_durations) / sum(untraced_durations) - 1.0
        metrics = tracer.summary(len(traced_durations), overhead)
        tracer.write(work / "spans.json")
        extra = {"binding_sites": tracer.binding_sites}
    else:
        tail_value, tail_pct, beyond = tail(durations)
        metrics = {
            "ops_per_s": (len(durations) / sum(durations), "1/s"),
            "op_p50_s": (statistics.median(durations), "s"),
            "op_tail_s": (tail_value, "s"),
            "peak_rss_mb": (peak_rss_kb(workload) / 1024.0, "MB"),
            "setup_s": (setup_s, "s"),
        }
        extra = {"op_tail_percentile": tail_pct, "op_tail_beyond": beyond,
                 "op_samples": len(durations),
                 "failed_frac": len(failures) / attempted}
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "durations": durations,
        "metrics": metrics,
        "extra": extra,
        "provenance": provenance(workload.name, seed, digests),
    }


def provenance(workload: str, seed: int, digests: list[dict[str, str]]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "moransar").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(SRC)).encode())
            source.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "input_sha256": digests,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the repository's own .git, read without running git."""
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


def prepare() -> str | None:
    """Point imports and child interpreters at this checkout's sources.

    Returns an error message when the sources are missing or another copy
    of moransar would be imported instead.
    """
    if not (SRC / "moransar" / "__init__.py").is_file():
        return f"no moransar sources under {SRC}"
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy loads its BLAS
    os.environ["PYTHONPATH"] = str(SRC)  # for the interpreters spawned later
    sys.path.insert(0, str(SRC))
    import moransar

    if Path(moransar.__file__).resolve().parent != SRC / "moransar":
        return f"imported moransar from {moransar.__file__}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = prepare()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), work)
    for k, problems in result["failures"]:
        print(f"op {k} FAILED: {'; '.join(problems)}", file=sys.stderr)
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print("extra " + json.dumps(result["extra"], sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:32s} {value:.6g} {unit}")
    (work / "result.json").write_text(json.dumps(result, indent=1, default=str))
    for path in work.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
