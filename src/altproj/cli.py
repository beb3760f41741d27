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
import json
import math
import sys

import numpy as np

from . import counterexample, euclid, figure, finite_union, map_driver, sequence, spiral
from .sequence import run_verification  # perfbench wraps this name on `cli`
from .serialize import dump_json, fmt17

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
    write = sequence.write_csv if args.format == "csv" else sequence.write_json
    with _open_out(args.out) as out:
        write(report, out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = sequence.generate(args.horizon)
    results = run_verification(report, args.nearest_horizon)
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
    except (ValueError, RecursionError) as exc:  # also json.JSONDecodeError, too deep nesting
        print(f"config error: {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = map_driver.config_from_dict(data)
    except RecursionError as exc:  # the set readers recurse deeper per level than json.load
        print(f"config error: {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    del data  # the parsed lists would otherwise stay alive through the run
    # an overflowed distance raises ValueError in `project`, a one-line
    # error; numpy's overflow warning would only repeat it
    with np.errstate(over="ignore"):
        trace = map_driver.run(config)
    del config  # the sets and their cloud indexes are not needed for the trace text
    with _open_out(args.trace_out) as out:
        text = map_driver.trace_to_json(trace)
        # a text stream encodes each string it is given whole: 64 K slices
        # keep it from holding a second copy of the trace
        for i in range(0, len(text), 1 << 16):
            out.write(text[i:i + (1 << 16)])
        out.write("\n")
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
    with _open_out(args.out) as out:
        counts = finite_union.run_batch(seeds, dim=args.dim,
                                        members_per_side=args.members,
                                        tol=args.tol, stream=out)
    print(f"pass={counts['pass']} hypotheses_not_met={counts['hypotheses_not_met']} "
          f"fail={counts['fail']}")
    return EXIT_CHECK_FAILED if counts["fail"] else EXIT_OK


def _cmd_export_sets(args) -> int:
    sets = counterexample.build(args.horizon, args.variant)
    pairs = args.pairs or counterexample.max_safe_pairs(args.horizon)
    config = counterexample.make_config(sets, pairs, args.stop_step)
    with _open_out(args.out) as out:
        dump_json(map_driver.config_to_dict(config), out)
        out.write("\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach `main` as a ValueError."""

    def error(self, message):
        raise ValueError(message)


def _checked(kind, ok, bound: str):
    """An argparse type: `kind(text)`, rejected unless `ok` holds for it."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: ..."
    return parse


def _int_at_least(low: int):
    return _checked(int, lambda value: value >= low, f">= {low}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="altproj",
        description="Alternating projections, exact set-valued projectors, and the "
                    "spiral iterate sequence clustering on the unit circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate the iterate sequence")
    p.add_argument("--n", type=_int_at_least(1), required=True, help="number of iterates")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run identity and nearest-point checks")
    p.add_argument("--horizon", type=_int_at_least(2), required=True,
                   help="number of iterates (>= 2)")
    p.add_argument("--nearest-horizon", type=_int_at_least(0), default=None,
                   help="check the nearest-point property only up to this iterate; "
                        "a larger value is clamped to horizon - 1 (default: every iterate)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("run", help="alternating projections from a JSON config")
    p.add_argument("--config", required=True, help="MapConfig JSON path")
    p.add_argument("--trace-out", default="-", help="trace JSON output path")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("plot", help="render the spiral figure as SVG")
    p.add_argument("--n", type=_int_at_least(2), required=True, help="number of iterates (>= 2)")
    p.add_argument("--out", default="-", help="SVG output path (default stdout)")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("union-batch", help="seeded finite-union scenarios")
    p.add_argument("--seeds", type=_int_at_least(1), required=True, help="number of seeds")
    p.add_argument("--seed-start", type=_int_at_least(0), default=0)
    p.add_argument("--dim", type=int, default=2, choices=(2, 3, 4))
    p.add_argument("--members", type=int, default=3, choices=(1, 2, 3, 4),
                   help="max convex members per side")
    p.add_argument("--tol", type=_checked(float, lambda tol: 0.0 < tol < math.inf,
                                          "finite and > 0"),
                   default=finite_union.DEFAULT_TOL)
    p.add_argument("--out", default="-", help="JSON-lines output path")
    p.set_defaults(func=_cmd_union_batch)

    p = sub.add_parser("export-sets", help="export the nonconvex pair as a run config")
    p.add_argument("--horizon", type=_int_at_least(3), required=True,
                   help="number of iterates split between the two sets (>= 3)")
    p.add_argument("--variant", choices=(counterexample.VARIANT_SPHERE,
                                         counterexample.VARIANT_DISK),
                   default=counterexample.VARIANT_SPHERE)
    p.add_argument("--pairs", type=_int_at_least(0), default=0,
                   help="projection pairs to run (default: largest safe count)")
    p.add_argument("--stop-step", type=_checked(float, lambda step: 0.0 <= step < math.inf,
                                                "finite and >= 0"), default=1e-6)
    p.add_argument("--out", default="-", help="config JSON output path")
    p.set_defaults(func=_cmd_export_sets)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (spiral.BracketInvalid, euclid.DegenerateProjection, map_driver.ProjectionTie) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
