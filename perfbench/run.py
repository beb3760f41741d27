#!/usr/bin/env python3
"""altproj benchmark: one workload per fresh child process, CLI in-process.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload spiral-walk --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

`--trace 0` prints the end-to-end metrics (setup_s, command_norm_s, peak_rss_mb);
`--trace 1` makes a separate traced run and prints the per-layer metrics.
Before the result, a `detail:` line gives the per-command medians (gen_s,
verify_s, run_s, union_batch_s, wall and normalised) with sample counts,
error_fraction, the input sizes and the environment.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Exits 1 when an
output check or a traced-run guard fails, 2 when the package source is
missing.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("spiral-walk", "counterexample-run", "union-batch")

#: Children of one untraced run, in order.  Each times its set-up (the run
#: reports the median of five); the measuring ones split the time budget,
#: so one process's memory layout or CPU placement does not set the run's
#: median.  At least one operation per measuring child.
CHILDREN = ("measure", "setup", "measure", "setup", "measure")
#: Every run must end well inside 180 s.
RUN_DEADLINE_S = 170.0

LAYER_UNITS = {
    "spiral.alpha_chain.self_s": "s", "spiral.steps": "count", "spiral.us_per_step": "us",
    "sequence.generate.self_s": "s", "sequence.write_csv.self_s": "s",
    "sequence.write_csv.bytes": "bytes", "sequence.verify_nearest.self_s": "s",
    "sequence.verify_nearest.horizon": "count", "sequence.check_halfangle_identity.self_s": "s",
    "euclid.project.calls": "count", "euclid.project.self_s": "s", "euclid.us_per_query": "us",
    "euclid.project.multivalued": "count",
    "map_driver.run.calls": "count", "map_driver.run.self_s": "s",
    "map_driver.iterations": "count", "map_driver.us_per_iter": "us",
    "map_driver.config_from_dict.self_s": "s", "map_driver.config_to_dict.self_s": "s",
    "map_driver.trace_to_json.self_s": "s", "map_driver.trace_to_json.bytes": "bytes",
    "map_driver.multivalued_events": "count",
    "counterexample.build.self_s": "s",
    "finite_union.generate_scenario.calls": "count",
    "finite_union.generate_scenario.self_s": "s", "finite_union.check_theorem.self_s": "s",
    "finite_union.run_batch.self_s": "s", "finite_union.outcome.pass": "count",
    "finite_union.outcome.hypotheses_not_met": "count", "finite_union.outcome.fail": "count",
    "cli.main.self_s": "s", "cli.run_verification.self_s": "s",
    "bench.trace_overhead_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
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
    return "unknown"


def _spawn(args, deadline: float, seconds: float, *extra: str) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline reached")
    argv = [sys.executable, str(CHILD), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--trace", str(args.trace), *extra]
    if args.tiny:
        argv.append("--tiny")
    t0 = time.monotonic()
    proc = subprocess.Popen(argv + ["--t0", repr(t0)], stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload}: child did not finish before the run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{args.workload}: child exited {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def _median_entry(samples: list[float], unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit, "samples": len(samples)}


def _pool(children: list[dict]) -> dict:
    """One untraced run's measuring children merged into one record."""
    pooled = {"attempted": 0, "failed": 0, "failures": [], "op_s": [], "op_wall_s": [],
              "commands": {}}
    for c in children:
        for key in ("attempted", "failed"):
            pooled[key] += c[key]
        for key in ("failures", "op_s", "op_wall_s"):
            pooled[key] += c[key]
        for metric, entry in c["commands"].items():
            into = pooled["commands"].setdefault(metric, {"wall": [], "norm": []})
            into["wall"] += entry["wall"]
            into["norm"] += entry["norm"]
    pooled["peak_rss_mb"] = max(c["peak_rss_mb"] for c in children)
    return {**children[0], **pooled}


def run_workload(args) -> tuple[dict, dict]:
    """(detail, result) for one workload; raises BenchError on a harness failure."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        child = _spawn(args, deadline, args.seconds)
    else:
        share = args.seconds / CHILDREN.count("measure")
        children = [_spawn(args, deadline, share, *([] if kind == "measure" else ["--setup-only"]))
                    for kind in CHILDREN]
        child = _pool([c for c, kind in zip(children, CHILDREN) if kind == "measure"])

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sizes": child["sizes"],
        "env": {**child["env"], "cpu": _cpu_model(), "nproc": os.cpu_count(),
                "commit": _git_commit()},
        "error_fraction": child["failed"] / child["attempted"],
        "failures": child["failures"][:10],
    }
    correct = child["failed"] == 0
    if args.trace:
        metrics = {k: {"value": child["layers"][k], "unit": u} for k, u in LAYER_UNITS.items()}
        for key in ("traced_op_s", "untraced_op_s", "top_self", "guard_errors"):
            detail[key] = child[key]
        correct = correct and not child["guard_errors"]
    else:
        metrics = {
            "setup_s": _median_entry([c["setup_s"] for c in children], "s"),
            "command_norm_s": _median_entry(child["op_s"], "s"),
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
        detail["figures"] = {
            "setup_wall_s": _median_entry([c["setup_wall_s"] for c in children], "s"),
            "command_wall_s": _median_entry(child["op_wall_s"], "s"),
            **{k: _median_entry(v["wall"], "s") for k, v in child["commands"].items()},
            **{k[:-2] + "_norm_s": _median_entry(v["norm"], "s")
               for k, v in child["commands"].items()},
            "error_fraction": {"value": detail["error_fraction"], "unit": "fraction"},
        }
    result = {"correct": correct, "attempted": child["attempted"], "failed": child["failed"],
              "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}
    detail["metrics"] = metrics
    return detail, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: gen 200, horizon 200, 20 seeds")
    args = parser.parse_args()
    if not (ROOT / "src" / "altproj" / "__init__.py").is_file():
        print(f"error: no altproj source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    try:
        for name in names:
            args.workload = name
            detail, result = run_workload(args)
            print("detail: " + json.dumps(detail))
            for key, entry in {**detail["metrics"], **detail.get("figures", {})}.items():
                print(f"  {name} {key} = {entry['value']:.6g} {entry['unit']}")
            print(json.dumps(result))
            ok = ok and result["correct"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):  # left only when empty
            (ROOT / ".perfbench-work").rmdir()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
