"""Command-line surface.

Subcommands:
  gen          generate the iterate sequence and write it as CSV or JSON
  verify       run the identity and nearest-point suites over a horizon
  run          execute alternating projections from a JSON config file
  plot         render the spiral figure as a standalone SVG
  union-batch  run seeded finite-union scenarios and report outcomes
  export-sets  write a ready-to-run config for the two nonconvex sets

Exit codes: 0 success, 1 check failure, 2 usage or config error, 3 I/O error.
All subcommands are deterministic for identical flags and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from itertools import chain

import numpy as np

from . import counterexample, euclid, figure, finite_union, map_driver, sequence, spiral
from .serialize import fmt17, render_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

@contextlib.contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _cmd_gen(args) -> int:
    report = sequence.generate(args.n)
    with _open_out(args.out) as out:
        if args.format == "csv":
            sequence.write_csv(report, out)
        else:
            out.write(render_json(sequence.records_to_json_obj(report)) + "\n")
    return EXIT_OK


def _fsum(values: np.ndarray) -> float:
    # the same values in the same order as math.fsum(values.tolist()), without
    # a full-length list of Python floats
    step = spiral.CHUNK
    return math.fsum(chain.from_iterable(
        values[i:i + step].tolist() for i in range(0, values.size, step)))


class CheckResult:
    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = passed
        self.detail = detail


def run_verification(report: sequence.SequenceReport,
                     nearest_horizon: int | None = None) -> list[CheckResult]:
    """Every sequence-level check, each returning a named pass/fail result."""
    results: list[CheckResult] = []

    def check(name: str, passed: bool, detail: str) -> None:
        results.append(CheckResult(name, bool(passed), detail))

    pts = report.points()
    alphas = report.alphas()
    epss = report.epss()
    deltas = report.deltas()

    eps0_closed = (1.0 - math.exp(-2.0 * math.pi)) / 2.0
    check("initialization",
          pts[0, 0] == 2.0 and pts[0, 1] == 0.0 and abs(epss[0] - eps0_closed) <= 1e-15,
          f"x0=({fmt17(pts[0, 0])}, {fmt17(pts[0, 1])}), eps0 residual "
          f"{abs(epss[0] - eps0_closed):.3e}")

    chord = sequence.check_step_identity(report)
    check("step-identity", chord <= 1e-10, f"max |chord - eps| = {chord:.3e}")

    half = sequence.check_halfangle_identity(report)
    check("half-angle-identity", half.raw <= 1e-10, f"max residual {half.raw:.3e}")
    check("half-angle-identity-scaled", half.scaled <= 1e-12,
          f"max residual {half.scaled:.3e}")

    telescope = abs(_fsum(deltas) - (alphas[-1] - alphas[0]))
    check("telescoping-delta-sum", telescope <= 1e-10, f"residual {telescope:.3e}")

    if len(report) > 1:
        ok = bool(np.all(deltas > 0.0) and np.all(deltas <= spiral.STEP_UPPER_BOUND))
        check("step-bracket", ok,
              f"delta range [{deltas.min():.6f}, {deltas.max():.6f}] rad, "
              f"bound {spiral.STEP_UPPER_BOUND:.6f}")
        check("eps-strictly-decreasing", bool(np.all(np.diff(epss) < 0.0)),
              f"eps from {fmt17(epss[0])} to {fmt17(epss[-1])}")
    else:
        check("step-bracket", True, "single record")
        check("eps-strictly-decreasing", True, "single record")

    gaps = np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)
    gap_resid = float(np.abs(gaps - np.exp(-alphas)).max())
    check("sphere-gap", gap_resid <= 1e-12, f"max residual {gap_resid:.3e}")

    sphere_margins = np.exp(-alphas) - epss
    check("sphere-never-nearer", bool(np.all(sphere_margins > 0.0)),
          f"min margin {sphere_margins.min():.3e}")

    horizon = len(report) - 1 if nearest_horizon is None else nearest_horizon
    try:
        margin = sequence.verify_nearest(report, horizon)
        check("nearest-point", margin > 0.0,
              f"min margin {margin:.3e} at horizon {horizon}")
    except sequence.NearestPropertyViolated as exc:
        check("nearest-point", False, str(exc))
    return results


def _cmd_verify(args) -> int:
    report = sequence.generate(args.horizon)
    cap = args.nearest_horizon
    results = run_verification(report, min(cap, len(report) - 1) if cap else None)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        failed = failed or not r.passed
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_constant=_reject_constant)
    except ValueError as exc:  # also json.JSONDecodeError
        print(f"config error: {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config = map_driver.config_from_dict(data)
    try:
        trace = map_driver.run(config)
    except euclid.DegenerateProjection as exc:
        print(f"degenerate projection: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except map_driver.ProjectionTie as exc:
        print(f"projection tie: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    with _open_out(args.trace_out) as out:
        out.write(map_driver.trace_to_json(trace) + "\n")
    v = trace.verdict
    extras = []
    if v.limit is not None:
        extras.append("limit=(" + ", ".join(fmt17(c) for c in v.limit) + ")")
    if v.ring_radius_estimate is not None:
        extras.append(f"ring_radius={v.ring_radius_estimate:.6f}")
    if v.angular_spread is not None:
        extras.append(f"angular_spread={v.angular_spread:.6f}")
    suffix = (" " + " ".join(extras)) if extras else ""
    print(f"verdict: {v.kind} after {v.iterations_used} iterations{suffix}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    report = sequence.generate(args.n)
    svg = figure.render_spiral_svg(report)
    with _open_out(args.out) as out:
        out.write(svg)
    return EXIT_OK


def _cmd_union_batch(args) -> int:
    seeds = range(args.seed_start, args.seed_start + args.seeds)
    buffer = io.StringIO()
    counts = finite_union.run_batch(seeds, dim=args.dim,
                                    members_per_side=args.members,
                                    tol=args.tol, stream=buffer)
    with _open_out(args.out) as out:
        out.write(buffer.getvalue())
    print(f"pass={counts['pass']} hypotheses_not_met={counts['hypotheses_not_met']} "
          f"fail={counts['fail']}")
    return EXIT_CHECK_FAILED if counts["fail"] else EXIT_OK


def _cmd_export_sets(args) -> int:
    sets = counterexample.build(args.horizon, args.variant)
    pairs = args.pairs if args.pairs else counterexample.max_safe_pairs(args.horizon)
    if 2 * pairs + 1 > args.horizon:
        raise ValueError(f"pairs={pairs} runs into the truncation edge for "
                         f"horizon={args.horizon}")
    config = counterexample.make_config(sets, pairs, args.stop_step)
    with _open_out(args.out) as out:
        out.write(render_json(map_driver.config_to_dict(config)) + "\n")
    return EXIT_OK


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altproj",
        description="Alternating projections, exact set-valued projectors, and the "
                    "spiral iterate sequence clustering on the unit circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate the iterate sequence")
    p.add_argument("--n", type=_positive_int, required=True, help="number of iterates")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run identity and nearest-point checks")
    p.add_argument("--horizon", type=int, required=True, help="number of iterates (>= 2)")
    p.add_argument("--nearest-horizon", type=int, default=0,
                   help="check the nearest-point property only up to this iterate "
                        "(default horizon - 1, every iterate)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("run", help="alternating projections from a JSON config")
    p.add_argument("--config", required=True, help="MapConfig JSON path")
    p.add_argument("--trace-out", default="-", help="trace JSON output path")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("plot", help="render the spiral figure as SVG")
    p.add_argument("--n", type=int, required=True, help="number of iterates (>= 2)")
    p.add_argument("--out", default="-", help="SVG output path (default stdout)")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("union-batch", help="seeded finite-union scenarios")
    p.add_argument("--seeds", type=_positive_int, required=True, help="number of seeds")
    p.add_argument("--seed-start", type=int, default=0)
    p.add_argument("--dim", type=int, default=2, choices=(2, 3, 4))
    p.add_argument("--members", type=int, default=3, choices=(1, 2, 3, 4),
                   help="max convex members per side")
    p.add_argument("--tol", type=float, default=finite_union.DEFAULT_TOL)
    p.add_argument("--out", default="-", help="JSON-lines output path")
    p.set_defaults(func=_cmd_union_batch)

    p = sub.add_parser("export-sets", help="export the nonconvex pair as a run config")
    p.add_argument("--horizon", type=_positive_int, required=True,
                   help="number of iterates split between the two sets")
    p.add_argument("--variant", choices=(counterexample.VARIANT_SPHERE,
                                         counterexample.VARIANT_DISK),
                   default=counterexample.VARIANT_SPHERE)
    p.add_argument("--pairs", type=int, default=0,
                   help="projection pairs to run (default: largest safe count)")
    p.add_argument("--stop-step", type=float, default=1e-6)
    p.add_argument("--out", default="-", help="config JSON output path")
    p.set_defaults(func=_cmd_export_sets)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify" and args.horizon < 2:
        print("error: --horizon must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "plot" and args.n < 2:
        print("error: --n must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "union-batch" and not (0.0 < args.tol < math.inf):
        print(f"error: --tol must be finite and > 0, got {args.tol!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (sequence.NearestPropertyViolated, counterexample.CorollaryViolated,
            spiral.BracketInvalid) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
