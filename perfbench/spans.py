"""In-memory spans recorded around calls into ssmopt's modules.

The benchmark never edits the package. It wraps module attributes from the
outside: every module-level reference to a target function (including
re-imports and dict entries such as a stepper table) is swapped for a
wrapper that records a span, and put back afterwards. A target the package
no longer has is skipped, so the benchmark survives refactors and reports
zero calls for what it could not find.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name). "Class.method" patches the class.
TARGETS = (
    ("ssmopt.harness", "load_config", "harness.load_config"),
    ("ssmopt.harness", "run_experiment", "harness.run"),
    ("ssmopt.harness", "run_compare", "harness.run"),
    ("ssmopt.harness", "run_flows", "harness.run"),
    ("ssmopt.harness", "emit_summary", "harness.emit"),
    ("ssmopt.harness", "_write_report_json", "harness.emit"),
    ("ssmopt.flow", "Trajectory.to_csv", "harness.emit"),
    ("ssmopt.objectives", "make_quadratic", "objectives.build"),
    ("ssmopt.objectives", "make_rosenbrock", "objectives.build"),
    ("ssmopt.objectives", "make_logistic", "objectives.build"),
    ("ssmopt.discrete", "run_discrete", "discrete.run"),
    ("ssmopt.discrete", "step_adam", "discrete.step"),
    ("ssmopt.discrete", "step_adabelief", "discrete.step"),
    ("ssmopt.discrete", "step_adamssm", "discrete.step"),
    ("ssmopt.discrete", "step_gadagrad", "discrete.step"),
    ("ssmopt.discrete", "step_sgd_momentum", "discrete.step"),
    ("ssmopt.discrete", "bias_denominators", "discrete.bias"),
    ("ssmopt.flow", "integrate_reference", "flow.integrate"),
    ("ssmopt.flow", "rhs_general", "flow.rhs"),
    ("ssmopt.flow", "gadagrad_energy_residual", "flow.energy_residual"),
    ("ssmopt.core", "alpha_g", "core.alpha_g"),
)

# The coarse pass records only one span per optimizer run, so it times the
# run loops at (nearly) untraced speed.
COARSE = frozenset({"discrete.run", "flow.integrate"})


class Tracer:
    """Spans kept in parallel arrays: name id, start, end, parent, run id.

    Parent -1 marks a root. Times are time.perf_counter() seconds.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self._stack: list[int] = []
        self.run_id = 0

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, start: float, end: float, parent: int = -1, run: int = 0) -> int:
        """Record a finished span directly; returns its index."""
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.run.append(run)
        return idx

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def root(self, name: str, run_id: int):
        """Span around one pass; spans recorded inside get this run id."""
        self.run_id = run_id
        idx = self.add(name, time.perf_counter(), 0.0, -1, run_id)
        self._stack.append(idx)
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def spans(self, run_id: int) -> list[tuple[str, float, float, int]]:
        """(name, start, end, parent) of one run; parent indexes this list."""
        index = [i for i in range(len(self.start)) if self.run[i] == run_id]
        local = {g: j for j, g in enumerate(index)}
        return [
            (self.names[self.name_id[g]], self.start[g], self.end[g], local.get(self.parent[g], -1))
            for g in index
        ]

    def write(self, path: Path) -> None:
        """Write every span to an .npz: parallel arrays name (an index into
        names), start, end, parent and run."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int64),
        )


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    spans is a list of (name, start, end, parent). Children may overlap each
    other or stick out of their parent; only their union inside the parent
    counts.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total duration and total self time (seconds)."""
    own = self_times(spans)
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for (name, start, end, _), self_s in zip(spans, own):
        s = stats[name]
        s["calls"] += 1
        s["total"] += end - start
        s["self"] += self_s
    return dict(stats)


@contextmanager
def instrumented(tracer: Tracer, names=None):
    """Wrap the targets (all of them, or those whose span name is in names)
    for the duration of the block."""
    restore = []
    modules = [m for n, m in sys.modules.items() if n == "ssmopt" or n.startswith("ssmopt.")]

    def swap(container, key, new, setter):
        restore.append((container, key, getattr(container, key) if setter else container[key], setter))
        if setter:
            setattr(container, key, new)
        else:
            container[key] = new

    try:
        for module_name, attr, name in TARGETS:
            if names is not None and name not in names:
                continue
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                continue
            wrapped = tracer.wrap(name, original)
            if name == "objectives.build":
                wrapped = _wrap_objective_builder(tracer, wrapped)
            if owner_name:
                swap(owner, method, wrapped, True)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        swap(mod, key, wrapped, True)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                swap(value, k, wrapped, False)
        yield tracer
    finally:
        for container, key, value, setter in reversed(restore):
            if setter:
                setattr(container, key, value)
            else:
                container[key] = value


def _wrap_objective_builder(tracer: Tracer, build):
    """Make the objectives a builder returns record their f and grad calls."""

    def build_traced(*args, **kwargs):
        obj = build(*args, **kwargs)
        return dataclasses.replace(
            obj,
            eval_f=tracer.wrap("objectives.f", obj.eval_f),
            eval_grad=tracer.wrap("objectives.grad", obj.eval_grad),
        )

    return build_traced
