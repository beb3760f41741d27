"""Outside-in tracing of altproj's layers.

`Tracer.install` replaces public functions of the package's modules with
timing wrappers, through the module (or class) attribute that callers look
up at call time; the package itself is not edited.  Each wrapper records a
span: its duration, the part of it covered by child spans (so self time is
the difference), its call count, and optional exact counters derived from
arguments and results.  `uninstall` restores the original attributes.

`serialize.render_json` and `serialize.fmt17` are deliberately not wrapped:
callers import them by name, so a module-attribute wrapper would miss them,
and their cost shows inside `write_csv`, `trace_to_json` and `run_batch`.
"""

from __future__ import annotations

import functools
import time


def _csv_start(args):
    return args[1].tell()


def _csv_bytes(args, result, start):
    return {"sequence.write_csv.bytes": args[1].tell() - start}


def _alpha_steps(args, result, _):
    return {"spiral.steps": int(result[0].size) - 1}


def _nearest_horizon(args, result, _):
    return {"sequence.verify_nearest.horizon": int(args[1])}


def _multivalued(args, result, _):
    return {"euclid.project.multivalued": int(result.multivalued)}


def _map_run(args, result, _):
    return {"map_driver.iterations": result.verdict.iterations_used,
            "map_driver.multivalued_events": len(result.multivalued_events)}


def _trace_bytes(args, result, _):
    return {"map_driver.trace_to_json.bytes": len(result.encode("utf-8"))}


def _outcomes(args, result, _):
    return {f"finite_union.outcome.{k}": v for k, v in result.items()}


#: (module, attribute path, span name, before hook, after hook).  The after
#: hook turns (args, result, before-state) into exact counter increments.
WRAP_POINTS = (
    ("spiral", "alpha_chain", "spiral.alpha_chain", None, _alpha_steps),
    ("sequence", "generate", "sequence.generate", None, None),
    ("sequence", "write_csv", "sequence.write_csv", _csv_start, _csv_bytes),
    ("sequence", "verify_nearest", "sequence.verify_nearest", None, _nearest_horizon),
    ("sequence", "check_halfangle_identity", "sequence.check_halfangle_identity", None, None),
    ("euclid", "ProjectorSpec.project", "euclid.project", None, _multivalued),
    ("map_driver", "run", "map_driver.run", None, _map_run),
    ("map_driver", "config_from_dict", "map_driver.config_from_dict", None, None),
    ("map_driver", "config_to_dict", "map_driver.config_to_dict", None, None),
    ("map_driver", "trace_to_json", "map_driver.trace_to_json", None, _trace_bytes),
    ("counterexample", "build", "counterexample.build", None, None),
    ("finite_union", "generate_scenario", "finite_union.generate_scenario", None, None),
    ("finite_union", "check_theorem", "finite_union.check_theorem", None, None),
    ("finite_union", "run_batch", "finite_union.run_batch", None, _outcomes),
    ("cli", "main", "cli.main", None, None),
    ("cli", "run_verification", "cli.run_verification", None, None),
)

SPAN_NAMES = tuple(point[2] for point in WRAP_POINTS)


class Tracer:
    """Span statistics for one traced pass, keyed by span name."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.total_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        """Wrap every entry of WRAP_POINTS on the imported `package`."""
        for module_name, path, name, before, after in WRAP_POINTS:
            owner = getattr(package, module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, before, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, before, after):
        stack = self._stack
        calls, self_s, total_s, counts = self.calls, self.self_s, self.total_s, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dur - child
                total_s[name] += dur
                if stack:
                    stack[-1] += dur
            if after:
                for key, value in after(args, result, state).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return wrapper
