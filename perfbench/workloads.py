"""The benchmark's workloads: input sizes from the seed, set-up, the measured
CLI commands, and the output checks that feed error_fraction.

Every command goes through `altproj.cli.main` in-process, looked up as a
module attribute at call time so that a tracer can wrap it.  A command
fails when it exits non-zero or its output fails the workload's check.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import numpy as np

#: Sizes used by the harness self-test.
TINY = {"n": 200, "horizon": 200, "seeds": 20}


class CheckFailed(Exception):
    """A command's output does not match what the workload expects."""


class Runner:
    """Runs CLI commands in-process, timing each on `time.monotonic()`."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        #: command label -> [(span name, self seconds)] for the traced pass
        self.top_self: dict[str, list] = {}

    def call(self, label: str, argv: list[str]) -> tuple[int, str, float, float]:
        """(exit code, stdout, begin, end) of one command."""
        before = dict(self.tracer.self_s) if self.tracer else None
        out = io.StringIO()
        begin = time.monotonic()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(argv)
        end = time.monotonic()
        if before is not None:
            delta = {k: v - before[k] for k, v in self.tracer.self_s.items()}
            self.top_self[label] = sorted(delta.items(), key=lambda kv: -kv[1])[:3]
        return rc, out.getvalue(), begin, end


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Workload:
    """Base: `setup` prepares inputs; `commands` lists one operation's parts.

    `reached` names the wrapped spans a traced pass (set-up plus one
    operation) must record at least one call for.
    """

    name = ""
    reached: tuple[str, ...] = ()

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.workdir = workdir
        self.sizes = self.make_sizes(seed, tiny)

    def make_sizes(self, seed: int, tiny: bool) -> dict:
        raise NotImplementedError

    def setup(self, runner: Runner) -> None:
        pass

    def commands(self) -> list[tuple[str, list[str], object]]:
        """(metric, argv, check(rc, stdout)) for each command of one operation."""
        raise NotImplementedError

    def path(self, name: str) -> str:
        return f"{self.workdir}/{name}"


class SpiralWalk(Workload):
    """`gen` to CSV, then `verify` with the full nearest-point oracle.

    No random input: the seed shifts N by seed mod 100 and H by
    2 (seed mod 50), under 1 % of either, so each seed is a different problem
    of the same cost.
    """

    name = "spiral-walk"
    reached = ("cli.main", "cli.run_verification", "spiral.alpha_chain",
               "sequence.generate", "sequence.write_csv", "sequence.verify_nearest",
               "sequence.check_halfangle_identity")

    def make_sizes(self, seed, tiny):
        n = TINY["n"] if tiny else 100_000 + seed % 100
        h = TINY["horizon"] if tiny else 10_000 + 2 * (seed % 50)
        return {"gen_n": n, "verify_horizon": h, "nearest_horizon": h - 1}

    def commands(self):
        s = self.sizes
        csv_path = self.path("gen.csv")
        return [
            ("gen_s", ["gen", "--n", str(s["gen_n"]), "--format", "csv", "--out", csv_path],
             lambda rc, out: self.check_csv(rc, csv_path)),
            ("verify_s", ["verify", "--horizon", str(s["verify_horizon"]),
                          "--nearest-horizon", str(s["nearest_horizon"])],
             self.check_verify),
        ]

    def check_csv(self, rc: int, csv_path: str) -> None:
        _expect(rc == 0, f"gen exited {rc}")
        n = self.sizes["gen_n"]
        # Streamed into preallocated columns, so the check adds little to peak RSS.
        alpha, eps, x, y = (np.empty(n) for _ in range(4))
        with open(csv_path, encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n")
            _expect(header == "n,alpha,delta,rho,eps,x,y", f"bad CSV header {header!r}")
            rows = 0
            for i, line in enumerate(handle):
                _expect(i < n, f"CSV has more than {n} data rows")
                fields = line.split(",")
                _expect(int(fields[0]) == i, f"CSV row {i} has index {fields[0]}")
                alpha[i], eps[i], x[i], y[i] = (float(fields[c]) for c in (1, 4, 5, 6))
                rows = i + 1
        _expect(rows == n, f"CSV has {rows} data rows, expected {n}")
        _expect(bool(np.all(np.diff(alpha) > 0.0)), "CSV angles do not strictly increase")
        chord = np.hypot(np.diff(x), np.diff(y))
        worst = float(np.abs(chord - eps[:-1]).max()) if n > 1 else 0.0
        _expect(worst <= 1e-10, f"CSV chord deviates from eps by {worst:.3e}")

    def check_verify(self, rc: int, out: str) -> None:
        _expect(rc == 0, f"verify exited {rc}")
        lines = out.splitlines()
        _expect(len(lines) > 0 and all(line.startswith("PASS ") for line in lines),
                "verify printed a line other than PASS")
        horizon = f"at horizon {self.sizes['nearest_horizon']}"
        _expect(any(line.startswith("PASS nearest-point:") and line.endswith(horizon)
                    for line in lines), f"verify did not run the nearest check {horizon}")


class CounterexampleRun(Workload):
    """`run` on the exported parity-split sets; `export-sets` is set-up.

    No random input: the seed shifts H by 2 (seed mod 50).  The tiny horizon
    ends with steps near 5e-3, so the self-test raises stop_step to 1e-5 to
    keep the continuum verdict's small-step condition (steps below 1000x
    stop_step) true; full size uses the CLI default 1e-6.
    """

    name = "counterexample-run"
    reached = ("cli.main", "spiral.alpha_chain", "sequence.generate", "counterexample.build",
               "map_driver.config_to_dict", "map_driver.config_from_dict", "map_driver.run",
               "euclid.project", "map_driver.trace_to_json")

    def make_sizes(self, seed, tiny):
        h = TINY["horizon"] if tiny else 10_000 + 2 * (seed % 50)
        return {"horizon": h, "pairs": (h - 1) // 2, "stop_step": "1e-5" if tiny else "1e-6"}

    def setup(self, runner):
        rc, *_ = runner.call("export-sets", ["export-sets", "--horizon",
                                               str(self.sizes["horizon"]),
                                               "--stop-step", self.sizes["stop_step"],
                                               "--out", self.path("config.json")])
        _expect(rc == 0, f"export-sets exited {rc}")

    def commands(self):
        trace_path = self.path("trace.json")
        return [("run_s", ["run", "--config", self.path("config.json"),
                           "--trace-out", trace_path],
                 lambda rc, out: self.check_run(rc, out, trace_path))]

    def check_run(self, rc: int, out: str, trace_path: str) -> None:
        _expect(rc == 0, f"run exited {rc}")
        pairs = self.sizes["pairs"]
        _expect(out.startswith(f"verdict: continuum_suspected after {pairs} iterations"),
                f"unexpected verdict line {out.strip()!r}")
        with open(self.path("config.json"), encoding="utf-8") as handle:
            config = json.load(handle)
        with open(trace_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        verdict = trace["verdict"]
        _expect(verdict["kind"] == "continuum_suspected" and verdict["iterations_used"] == pairs,
                f"trace verdict {verdict['kind']} after {verdict['iterations_used']}")
        # A holds the even iterates, B the odd ones: a[n] is iterate 2n, b[n] is 2n+1.
        for side, key in (("A", "a"), ("B", "b")):
            cloud = next(m["coords"] for m in config[side]["members"] if m["type"] == "points")
            _expect(len(trace[key]) == pairs and trace[key] == cloud[:pairs],
                    f"trace {key} is not the exported {side} iterates bit for bit")


class UnionBatch(Workload):
    """`union-batch` over seeded finite convex unions; the seed picks --seed-start."""

    name = "union-batch"
    reached = ("cli.main", "finite_union.run_batch", "finite_union.generate_scenario",
               "finite_union.check_theorem", "map_driver.run", "euclid.project")

    def make_sizes(self, seed, tiny):
        seeds = TINY["seeds"] if tiny else 2_000
        return {"seeds": seeds, "seed_start": (seed % 1_000_000) * seeds, "dim": 3, "members": 4}

    def commands(self):
        s = self.sizes
        out_path = self.path("batch.jsonl")
        return [("union_batch_s",
                 ["union-batch", "--seeds", str(s["seeds"]), "--seed-start", str(s["seed_start"]),
                  "--dim", str(s["dim"]), "--members", str(s["members"]), "--out", out_path],
                 lambda rc, out: self.check_batch(rc, out, out_path))]

    def check_batch(self, rc: int, out: str, out_path: str) -> None:
        _expect(rc == 0, f"union-batch exited {rc}")
        start, seeds = self.sizes["seed_start"], self.sizes["seeds"]
        with open(out_path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle.read().splitlines()]
        _expect(len(records) == seeds, f"{len(records)} JSON lines, expected {seeds}")
        _expect([r["seed"] for r in records] == list(range(start, start + seeds)),
                "JSON lines are not one per seed in order")
        tally = {"pass": 0, "hypotheses_not_met": 0, "fail": 0}
        for r in records:
            tally[r["outcome"]] += 1
        summary = (f"pass={tally['pass']} hypotheses_not_met={tally['hypotheses_not_met']} "
                   f"fail={tally['fail']}")
        _expect(out.strip() == summary, f"summary {out.strip()!r} does not match {summary!r}")
        _expect(tally["fail"] == 0, f"{tally['fail']} scenarios failed")


WORKLOADS = {w.name: w for w in (SpiralWalk, CounterexampleRun, UnionBatch)}
