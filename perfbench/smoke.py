"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs one tiny op of every workload, traced and untraced, and checks that
each metric declared in BENCHMARK.json comes out with its declared unit and
that no op failed. It also checks that the output oracle fails an op whose
report was perturbed, that the tracer wraps every module-level binding of
every public layer function, and that the benchmark refuses to run in a
directory without the moransar sources. Exits 1 if any check failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)


def check_metrics(spec: dict, tiny: dict) -> None:
    expect(set(tiny) == {w["name"] for w in spec["workloads"]},
           "smoke workloads differ from BENCHMARK.json")
    for name, workload in tiny.items():
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            work = run.ROOT / ".bench_out" / f"smoke-{name}-trace{int(trace)}"
            result = run.run(workload, 0, 0.0, trace, work, setup_spawns=1)
            got = {metric: unit for metric, (_value, unit) in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            expect(got == want, f"{name} trace={int(trace)}: metrics {got} != {want}")
            expect(result["failed"] == 0, f"{name}: {result['failures']}")
            shutil.rmtree(work)


def check_perturbed_report_fails() -> None:
    from workloads import AnalyzeSpectral, load_report

    class Perturbed(AnalyzeSpectral):
        def call(self, inputs, out_dir):
            out = super().call(inputs, out_dir)
            path = out / "report.json"
            report = load_report(path)
            report["moran"]["i_value"] *= 1.0 + 1e-9
            path.write_text(json.dumps(report))
            return out

        op = call

    work = run.ROOT / ".bench_out" / "smoke-perturbed"
    result = run.run(Perturbed(n=12, permutations=19, clusters=2), 0, 0.0, False, work,
                     setup_spawns=1)
    expect(result["attempted"] == 1 and result["failed"] == 1,
           f"perturbed report was not counted as failed: {result['failures']}")
    shutil.rmtree(work)


def check_tracer_coverage() -> None:
    import moransar.bounds
    import moransar.eigen
    import moransar.simulate
    import moransar.verification
    from tracer import Tracer

    original = moransar.eigen.symmetric_eigenvalues
    tracer = Tracer()
    tracer.install()
    try:
        expect(tracer.unwrapped_bindings() == [],
               f"unwrapped bindings: {tracer.unwrapped_bindings()}")
        for module in (moransar.eigen, moransar.bounds, moransar.verification,
                       moransar.simulate):
            expect(getattr(module.symmetric_eigenvalues, "__wrapped__", None) is original,
                   f"{module.__name__}.symmetric_eigenvalues is not wrapped")
    finally:
        tracer.uninstall()
    expect(moransar.bounds.symmetric_eigenvalues is original, "uninstall left a wrapper")


def check_refuses_without_sources(spec: dict) -> None:
    bare = run.ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(out.returncode != 0 and '"metrics"' not in out.stdout,
           f"ran without sources: exit {out.returncode}, stdout {out.stdout[-200:]!r}")
    shutil.rmtree(bare)


def main() -> int:
    error = run.prepare()
    if error is not None:
        print(f"smoke: {error}", file=sys.stderr)
        return 1
    from workloads import AnalyzeSpectral, CliPaper35, VerifyDeck

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tiny = {
        "analyze-spectral": AnalyzeSpectral(n=12, permutations=19, clusters=2),
        "cli-paper35": CliPaper35(n=8, permutations=19, clusters=2),
        "verify-deck": VerifyDeck(max_n=8),
    }
    check_metrics(spec, tiny)
    check_perturbed_report_fails()
    check_tracer_coverage()
    check_refuses_without_sources(spec)
    for failure in FAILURES:
        print(f"FAIL {failure}", file=sys.stderr)
    print("smoke: " + ("FAILED" if FAILURES else "ok"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
