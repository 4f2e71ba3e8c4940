"""Command-line interface.

Verbs: analyze (full report), scatter (plot data and SVG), bounds
(spectral ranges), simulate (synthetic dataset), verify (identity suite,
the CI hook). Exit codes: 0 success, 1 input problem, 2 numerical
failure, 3 I/O failure. The seed comes from --seed, falling back to the
MORANSAR_SEED environment variable, then 0.

Each verb is a thin wrapper over the library. analyze turns its flags
into an AnalysisConfig, which validates them, and runs pipeline.analyze
and pipeline.emit_report; scatter and bounds read their files through
pipeline.prepare_files, as analyze does, and simulate checks its draw
with spatial_data.prepare; a data error of an input file names that file
(errors.located) in every verb that reads one.

Each verb imports the library modules it runs when it runs, so this
module loads no numpy: ``--help``, ``--version`` and a usage error pay
for the argument parser alone.

``run`` is the process entry of ``python -m moransar`` and of the
``moransar`` console script; ``main`` is the in-process one.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from ._version import __version__
from .errors import InputError, NumericalError, ParseError, located

# the scatter verb's --mode choices, naming MODE_AUTOCORRELATION and
# MODE_AUTOREGRESSION in that order
MODE_NAMES = ("autocorr", "sar")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # numerical failures here, so usage problems exit 1 like other
    # input errors
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        if value < 0:
            raise InputError(f"--seed must be nonnegative, got {value}")
        return value
    env = os.environ.get("MORANSAR_SEED")
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise InputError(f"MORANSAR_SEED is not an integer: {env!r}") from None
    if seed < 0:
        raise InputError(f"MORANSAR_SEED must be nonnegative, got {env!r}")
    return seed


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sizes", required=True, help="sizes CSV (id,value)")
    parser.add_argument("--dist", required=True, help="distance CSV")
    parser.add_argument("--dist-format", choices=("matrix", "long"),
                        default="matrix")
    parser.add_argument("--log", action="store_true",
                        help="log-transform sizes before standardizing")
    parser.add_argument("--strict-symmetry", action="store_true",
                        help="reject asymmetric distances instead of averaging")


def _symmetrize_policy(args) -> str:
    return "strict" if args.strict_symmetry else "auto"


def _prepared(args):
    from .pipeline import prepare_files

    inputs, _, _ = prepare_files(args.sizes, args.dist, args.dist_format,
                                 apply_log=args.log, symmetrize=_symmetrize_policy(args))
    return inputs


def cmd_analyze(args) -> int:
    from .pipeline import AnalysisConfig, analyze, emit_report

    config = AnalysisConfig(
        sizes_path=args.sizes,
        dist_path=args.dist,
        log_transform=args.log,
        permutations=args.permutations,
        seed=_resolve_seed(args.seed),
        alpha=args.alpha,
        dist_format=args.dist_format,
        symmetrize=_symmetrize_policy(args),
        dw_critical_path=args.dw_critical,
    )
    report = analyze(config)
    formats = {"json", "csv", "svg"} if args.svg else {"json", "csv"}
    written = emit_report(report, formats, args.out)

    passed = sum(1 for c in report.identities if c.passed)
    print(f"n={report.provenance.n}  I={report.moran.i_value:.6g}  "
          f"rho={report.sar.rho_hat:.6g}  a={report.sar.a_hat:.6g}  "
          f"R2={report.sar.r_squared:.6g}  delta={report.sar.delta:.6g}")
    print(f"identities: {passed}/{len(report.identities)} pass")
    for path in written.values():
        print(f"wrote {path}")
    if not report.all_identities_pass:
        for check in report.identities:
            if not check.passed:
                print(f"IDENTITY FAIL {check.name}: slack={check.slack:.3e} "
                      f"tol={check.tolerance:.1e}", file=sys.stderr)
        return 2
    return 0


def cmd_scatter(args) -> int:
    from .autocorr import MODE_AUTOCORRELATION, MODE_AUTOREGRESSION, scatter_dataset
    from .dataio import write_scatter_csv
    from .sar import fit_sar_ols
    from .svgplot import render_svg

    mode = dict(zip(MODE_NAMES, (MODE_AUTOCORRELATION, MODE_AUTOREGRESSION)))[args.mode]
    inputs = _prepared(args)
    dataset = scatter_dataset(inputs, fit_sar_ols(inputs), mode)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"scatter_{mode}.csv"
    write_scatter_csv(dataset, csv_path)
    print(f"wrote {csv_path}")
    if args.svg:
        svg_path = out_dir / f"scatter_{mode}.svg"
        render_svg(dataset, svg_path)
        print(f"wrote {svg_path}")
    return 0


def cmd_bounds(args) -> int:
    from .bounds import bounds_report
    from .sar import fit_sar_ols

    inputs = _prepared(args)
    fit = fit_sar_ols(inputs)
    report = bounds_report(inputs, fit.r_squared)

    def verdict(c) -> str:
        word = "contained" if c.contained else "OUTSIDE"
        return (f"{c.lower:.6g} <= {c.value:.6g} <= {c.upper:.6g}  "
                f"[{word}, slack {c.slack:.3e}]")

    print(f"range 1 (eigenvalues of W vs I/n):       "
          f"{verdict(report.range1.containment)}")
    print(f"range 2 theoretical (W'W vs lag energy): "
          f"{verdict(report.range2.theoretical)}")
    print(f"range 2 empirical ((Wz)'(Wz)/n):         "
          f"{verdict(report.range2.empirical)}")
    print(f"range 3 (outer product vs I^2/n):        "
          f"{verdict(report.range3.containment)}")
    rho = report.range1.rho_theoretical
    print(f"implied rho region: rho <= {rho.lower:.6g} or rho >= {rho.upper:.6g}")
    print(f"|I| = {report.abs_index:.6g} "
          f"({'<= 1' if report.pearson_analogy_ok else '> 1'}, informational)")
    return 0


def cmd_simulate(args) -> int:
    import numpy as np

    from .dataio import load_distances, write_distance_matrix, write_sizes
    from .simulate import random_distances, simulate_sar
    from .spatial_data import prepare

    if args.n < 2:
        raise InputError(f"--n must be at least 2, got {args.n}")
    seed = _resolve_seed(args.seed)
    if args.dist is not None:
        ids, distances = load_distances(args.dist, args.dist_format)
        if len(ids) != args.n:
            raise ParseError(str(args.dist), 0, f"{len(ids)} elements, but --n is {args.n}")
    else:
        ids = tuple(str(i) for i in range(args.n))
        distances = random_distances(np.random.default_rng([seed, 0x51]), args.n)
    # a data error of a --dist file names it, as in the verbs that read two files
    with located(dist=args.dist, ids=ids):
        raw = simulate_sar(distances, args.a, args.rho, args.noise_sd, seed=seed)
        raw = type(raw)(ids=ids, values=raw.values)
        # before writing, so a draw the analysis would reject leaves no files
        i_value = prepare(raw, distances).i_value

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sizes_path = out_dir / "sizes.csv"
    dist_path = out_dir / "distances.csv"
    write_sizes(raw, sizes_path)
    write_distance_matrix(ids, distances, dist_path)

    print(f"simulated n={args.n} with a={args.a} rho={args.rho} "
          f"noise_sd={args.noise_sd} seed={seed}")
    print(f"realized Moran index: {i_value:.6g}")
    print(f"wrote {sizes_path}")
    print(f"wrote {dist_path}")
    return 0


def cmd_verify(args) -> int:
    from .verification import run_suite

    seed = _resolve_seed(args.seed)
    result = run_suite(master_seed=seed, instances=args.instances)
    for failure in result.failures:
        print(f"FAIL {failure.name}: slack={failure.slack:.3e} "
              f"tol={failure.tolerance:.1e}", file=sys.stderr)
    status = "PASS" if result.passed else "FAIL"
    print(f"identity suite: {result.total} checks, {len(result.failures)} failures "
          f"[{status}] ({result.elapsed_seconds:.1f} s)")
    return 0 if result.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="moransar",
                     description="Moran's index and the simplest spatial "
                                 "autoregressive model, with verified identities")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full analysis report")
    _add_input_flags(p_analyze)
    p_analyze.add_argument("--permutations", type=int, default=999)
    p_analyze.add_argument("--seed", type=int, default=None)
    p_analyze.add_argument("--alpha", type=float, default=0.05)
    p_analyze.add_argument("--dw-critical", default=None,
                           help="critical-values CSV (n,alpha,d_l,d_u)")
    p_analyze.add_argument("--out", default=".", help="output directory")
    p_analyze.add_argument("--svg", action="store_true",
                           help="also render scatterplot SVGs")
    p_analyze.set_defaults(func=cmd_analyze)

    p_scatter = sub.add_parser("scatter", help="scatterplot dataset and SVG")
    _add_input_flags(p_scatter)
    p_scatter.add_argument("--mode", choices=MODE_NAMES, default=MODE_NAMES[0])
    p_scatter.add_argument("--out", default=".", help="output directory")
    p_scatter.add_argument("--svg", action="store_true")
    p_scatter.set_defaults(func=cmd_scatter)

    p_bounds = sub.add_parser("bounds", help="spectral value ranges")
    _add_input_flags(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--a", type=float, default=1.0)
    p_sim.add_argument("--rho", type=float, default=0.0)
    p_sim.add_argument("--noise-sd", type=float, default=1.0)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--dist", default=None,
                       help="optional distance CSV; generated when omitted")
    p_sim.add_argument("--dist-format", choices=("matrix", "long"),
                       default="matrix")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the identity suite (CI hook)")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--instances", type=int, default=150)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"moransar: input error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"moransar: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"moransar: i/o error: {exc}", file=sys.stderr)
        return 3


def run(argv: list[str] | None = None) -> int:
    """Run ``main`` as a whole process, then freeze the garbage collector.

    ``gc.freeze()`` moves every object alive at that point (numpy's and
    moransar's import-time objects most of all) into the permanent
    generation, which the interpreter's exit-time collections skip.
    Shutdown is otherwise ordinary: atexit handlers run and stdio is
    flushed. ``main`` does not freeze: in a caller that goes on running
    after it returns, a reference cycle among frozen objects would never
    be collected.
    """
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
