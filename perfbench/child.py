"""One workload in a fresh process: set-up, then timed operations.

Started by run.py with the parent's `time.monotonic()` at spawn (the clock
is system-wide on Linux), so set-up time runs from before the interpreter
starts until the inputs are ready.  Prints one JSON object on stdout.

Untraced: operations repeat until the next one would end past `--seconds`,
with at least one; every interval is also normalised to the
reference machine speed (speed.py).  Traced: traced passes (set-up plus one
operation, with every layer wrapped) alternate with untraced operations;
at least two traced passes, whose exact counts must agree.  The speed
sampler is off in traced runs, so it does not show in the spans.
"""

import os

# Before numpy loads: all load comes from this one single-threaded process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fewest traced passes a traced run makes.
MIN_TRACED = 2


def _import_package():
    sys.path.insert(0, str(SRC))
    import altproj
    from altproj import cli, counterexample, finite_union  # noqa: F401  (wrap targets)

    if not Path(altproj.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"altproj imported from {altproj.__file__}, not from {SRC}")
    return altproj


def _run_operation(workload, runner, tally: dict) -> list[tuple[str, float, float]]:
    """Run one operation's commands; return (metric, begin, end) of each that returned."""
    spans = []
    for metric, argv, check in workload.commands():
        tally["attempted"] += 1
        try:
            rc, out, begin, end = runner.call(metric, argv)
            spans.append((metric, begin, end))
            check(rc, out)
        except Exception as exc:  # a crashed command or a failed check is a failed operation
            tally["failed"] += 1
            tally["failures"].append(f"{metric}: {type(exc).__name__}: {exc}")
    return spans


def _wall(spans) -> float:
    return sum(end - begin for _, begin, end in spans)


def _measure(args, workload, runner, tally) -> list[list]:
    """Untraced operations until the time budget is spent; their command spans."""
    ops = []
    start = time.monotonic()
    while True:
        ops.append(_run_operation(workload, runner, tally))
        next_op = statistics.median(_wall(op) for op in ops)
        if time.monotonic() - start + next_op > args.seconds:
            return ops


def _summarise(ops, sampler) -> dict:
    commands = {}
    for op in ops:
        for metric, begin, end in op:
            entry = commands.setdefault(metric, {"wall": [], "norm": []})
            entry["wall"].append(end - begin)
            entry["norm"].append(sampler.normalise(begin, end))
    return {"commands": commands, "op_wall_s": [_wall(op) for op in ops],
            "op_s": [sum(sampler.normalise(b, e) for _, b, e in op) for op in ops]}


def _layer_metrics(tracer) -> dict:
    m = {f"{name}.self_s": tracer.self_s[name] for name in tracer.self_s}
    for name in ("euclid.project", "map_driver.run", "finite_union.generate_scenario"):
        m[f"{name}.calls"] = tracer.calls[name]
    for key in ("spiral.steps", "sequence.write_csv.bytes", "sequence.verify_nearest.horizon",
                "euclid.project.multivalued", "map_driver.iterations",
                "map_driver.multivalued_events", "map_driver.trace_to_json.bytes",
                "finite_union.outcome.pass", "finite_union.outcome.hypotheses_not_met",
                "finite_union.outcome.fail"):
        m[key] = tracer.counts.get(key, 0)

    def per(seconds, count):
        return seconds / count * 1e6 if count else 0.0

    m["spiral.us_per_step"] = per(tracer.self_s["spiral.alpha_chain"], m["spiral.steps"])
    m["euclid.us_per_query"] = per(tracer.self_s["euclid.project"], m["euclid.project.calls"])
    m["map_driver.us_per_iter"] = per(tracer.total_s["map_driver.run"],
                                      m["map_driver.iterations"])
    return m


def _exact(tracer) -> dict:
    """Everything a traced pass must repeat exactly: call counts and counters."""
    return {**{f"{k}.calls": v for k, v in tracer.calls.items()}, **tracer.counts}


def _guard(workload, passes) -> list[str]:
    """A wrapped span the workload must reach recorded no call, or counts differ."""
    errors = []
    for i, tracer in enumerate(passes):
        missing = [name for name in workload.reached if tracer.calls[name] == 0]
        if missing:
            errors.append(f"traced pass {i} recorded no call of {', '.join(missing)}")
    first = _exact(passes[0])
    for i, tracer in enumerate(passes[1:], start=1):
        other = _exact(tracer)
        diff = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
        if diff:
            errors.append(f"traced pass {i} counts differ from pass 0 in {', '.join(diff)}")
    return errors


def _measure_traced(args, workload, altproj, tally) -> dict:
    """Traced passes alternating with untraced operations; per-layer metrics."""
    from tracer import Tracer
    from workloads import Runner

    untraced, traced, passes = [], [], []
    start = time.monotonic()
    while True:
        if len(traced) <= len(untraced):
            tracer = Tracer()
            tracer.install(altproj)
            runner = Runner(altproj.cli, tracer)
            try:
                workload.setup(runner)
                traced.append(_wall(_run_operation(workload, runner, tally)))
            finally:
                tracer.uninstall()
            passes.append(tracer)
            top_self = runner.top_self
        else:
            untraced.append(_wall(_run_operation(workload, Runner(altproj.cli), tally)))
        next_op = statistics.median(untraced or traced)
        done = len(passes) >= MIN_TRACED and untraced
        if done and time.monotonic() - start + next_op > args.seconds:
            break
    per_pass = [_layer_metrics(t) for t in passes]
    # Times are medians over the passes; counts agree across passes (guarded).
    layers = {k: statistics.median(p[k] for p in per_pass) if isinstance(v, float) else v
              for k, v in per_pass[0].items()}
    u = statistics.median(untraced)
    layers["bench.trace_overhead_frac"] = (statistics.median(traced) - u) / u
    return {"layers": layers, "guard_errors": _guard(workload, passes),
            "traced_op_s": traced, "untraced_op_s": untraced, "top_self": top_self}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="parent monotonic clock at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    from speed import SpeedSampler

    sampler = SpeedSampler()
    if not args.trace:
        sampler.start()
    altproj = _import_package()
    import numpy
    from workloads import WORKLOADS, Runner

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, str(workdir))
        runner = Runner(altproj.cli)
        workload.setup(runner)
        ready = time.monotonic()
        result = {"setup_wall_s": ready - args.t0, "sizes": workload.sizes}
        tally = {"attempted": 0, "failed": 0, "failures": []}
        if args.trace:
            result.update(_measure_traced(args, workload, altproj, tally))
        else:
            ops = [] if args.setup_only else _measure(args, workload, runner, tally)
            sampler.stop()
            result.update(_summarise(ops, sampler), setup_s=sampler.normalise(args.t0, ready))
        result.update(
            attempted=tally["attempted"], failed=tally["failed"], failures=tally["failures"][:10],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env={"python": platform.python_version(), "numpy": numpy.__version__,
                 "altproj": altproj.__version__, "backend": altproj.BACKEND,
                 "threads": {v: os.environ[v] for v in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}},
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
