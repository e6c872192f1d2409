"""Experiment harness: strict JSON config ingestion, one function that runs
every entry of a config in one batched call (the discrete runs, or their
continuous-time counterparts), and artifact emission (per-run trajectory
CSVs, report JSON, sorted comparison tables).

Config schema (all keys optional unless marked required; unknown keys are
errors):

    {
      "objective": {               required
        "kind": "quadratic" | "rosenbrock" | "logistic",   required
        "dim": int,                default 2
        "cond": float,             quadratic only, default 100.0
        "n_samples": int,          logistic only, default 40
        "seed": int,               logistic only, default 0
        "x0": [floats]             default: ones / (-1.2, 1, ...) / zeros
      },
      "optimizers": [              required, at least one entry
        {
          "kind": "gadagrad" | "adam" | "adabelief" | "adamssm"
                  | "adabeliefssm" | "sgd_momentum",        required
          "name": str,             default: the kind; no comma, '"', CR, LF
          "b1", "b2", "b3", "delta", "epsilon", "eta", "c": floats,
          "bias_mode": "paper" | "beta" | "continuous",     default "paper"
          "beta": float            default 0.9
        }
      ],
      "iterations": int,           default 1000
      "record_stride": int,        default 1
      "threshold": float,          default 1e-4 (grad-norm success cut)
      "schedule": {"milestones": [[iteration, multiplier], ...]},
      "output_dir": str            default "runs"; SSMOPT_OUT_DIR overrides
    }

Objective kinds are one table, OBJECTIVE_KINDS, as optimizer kinds are
discrete.KIND_KEYS: each kind's factory, its own keys and its default x0.

An entry takes only the keys its kind reads besides kind and name, those
of discrete.KIND_KEYS; any other key is a ParseError. The conditions an
entry must meet are OptimizerSpec.violations.

An ssm-kind entry with b3 exactly 0 is canonicalized to the matching
non-ssm kind before validation: the dynamics coincide exactly at b3 = 0, so
comparison configs can express that identity while direct preset validation
stays strict.

Reports carry no wall time, so repeated invocations of the same config
produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Collection, Optional

import numpy as np

from .core import PresetKind, PresetParams, ValidationError
from .discrete import BIAS_MODES, KIND_KEYS, LrSchedule, OptimizerSpec, run_discrete_batch
from .flow import RunReport, _check_grid, _check_run, _integrate_rows, gadagrad_energy_residual, preset_flow, rk4_step
from .objectives import Objective, make_logistic, make_quadratic, make_rosenbrock

SUMMARY_COLUMNS = ("optimizer", "best_f", "epoch_of_best", "final_grad_norm", "iters_to_threshold")

# nu(0) used when integrating the continuous-time counterpart of an entry.
# The discrete steppers start at nu = 0, but the flows require nu(0) > 0.
FLOW_NU0 = 1.0


class ParseError(ValueError):
    """Config file is malformed: bad JSON, unknown key, wrong type."""


@dataclass(frozen=True)
class ObjectiveSpec:
    """Declarative objective choice from a config file."""

    kind: str
    dim: int = 2
    cond: float = 100.0
    n_samples: int = 40
    seed: int = 0
    x0: Optional[tuple[float, ...]] = None


# Every objective kind, in the order messages list them: its factory, the ObjectiveSpec fields
# only it reads, passed to the factory after dim, and its default x0 as a function of dim.
OBJECTIVE_KINDS = {
    "quadratic": (make_quadratic, ("cond",), np.ones),
    "rosenbrock": (make_rosenbrock, (), lambda dim: np.r_[-1.2, np.ones(dim - 1)]),
    "logistic": (make_logistic, ("n_samples", "seed"), np.zeros),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; construction via load_config, which
    keeps the objective it builds in built for the run (dataclasses.replace
    drops it)."""

    objective: ObjectiveSpec
    optimizers: tuple[OptimizerSpec, ...]
    iterations: int = 1000
    record_stride: int = 1
    threshold: float = 1e-4
    milestones: tuple[tuple[int, float], ...] = ()
    output_dir: str = "runs"
    built: Optional[Objective] = field(default=None, init=False, compare=False, repr=False)


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, allowed: Collection[str], required: tuple[str, ...], path: str):
    for key in mapping:
        if key not in allowed:
            raise ParseError(f"unknown key '{path}.{key}'" if path else f"unknown key '{key}'")
    for key in required:
        if key not in mapping:
            where = f"{path}.{key}" if path else key
            raise ParseError(f"missing required key '{where}'")


def _as_float(value, where: str) -> float:
    # json.loads keeps integer literals exact, so one can exceed every float
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{where}: number too large for a float") from None


def _get_number(mapping: dict, key: str, default: float, path: str) -> float:
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}.{key}: expected a number, got {type(value).__name__}")
    return _as_float(value, f"{path}.{key}")


def _get_int(mapping: dict, key: str, default: int, path: str) -> int:
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}.{key}: expected an integer, got {type(value).__name__}")
    return value


def _get_str(mapping: dict, key: str, default: str, path: str, choices: tuple[str, ...] = ()) -> str:
    value = mapping.get(key, default)
    if not isinstance(value, str):
        raise ParseError(f"{path}.{key}: expected a string, got {type(value).__name__}")
    if choices and value not in choices:
        raise ParseError(f"{path}.{key}: expected one of {choices}, got {value!r}")
    return value


def _get_fields(mapping: dict, cls, names: tuple[str, ...], path: str) -> dict:
    """The named int, float and str fields of dataclass cls, read in the
    order given, each by its annotated type and with its default if absent."""
    readers = {"int": _get_int, "float": _get_number, "str": _get_str}
    by_name = {f.name: f for f in fields(cls)}
    return {name: readers[by_name[name].type](mapping, name, by_name[name].default, path) for name in names}


def _parse_objective(raw: dict) -> ObjectiveSpec:
    path = "objective"
    _check_keys(raw, tuple(f.name for f in fields(ObjectiveSpec)), ("kind",), path)
    kind = _get_str(raw, "kind", "", path, tuple(OBJECTIVE_KINDS))
    for owner, (_, keys, _) in OBJECTIVE_KINDS.items():
        for key in keys:
            if owner != kind and key in raw:
                raise ParseError(f"{path}.{key}: only valid for the {owner} objective")
    dim = _get_fields(raw, ObjectiveSpec, ("dim",), path)["dim"]
    x0 = None
    if "x0" in raw:
        seq = raw["x0"]
        if not isinstance(seq, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq
        ):
            raise ParseError(f"{path}.x0: expected a list of numbers")
        if len(seq) != dim:
            raise ParseError(f"{path}.x0: expected {dim} entries, got {len(seq)}")
        x0 = tuple(_as_float(v, f"{path}.x0") for v in seq)
    return ObjectiveSpec(kind, dim, x0=x0, **_get_fields(raw, ObjectiveSpec, OBJECTIVE_KINDS[kind][1], path))


def _parse_optimizer(raw: dict, index: int) -> OptimizerSpec:
    path = f"optimizers[{index}]"
    _check_keys(raw, {"kind", "name"}.union(*KIND_KEYS.values()), ("kind",), path)
    kind = _get_str(raw, "kind", "", path, tuple(KIND_KEYS))
    for key in raw:
        if key not in ("kind", "name") and key not in KIND_KEYS[kind]:
            raise ParseError(f"{path}.{key}: not valid for {kind}")
    preset = PresetParams(**{f.name: _get_number(raw, f.name, f.default, path) for f in fields(PresetParams)})
    name = _get_str(raw, "name", kind, path)
    if any(ch in name for ch in ',"\r\n'):
        raise ParseError(f"{path}.name: a comma, double quote, CR or LF would break summary.csv, got {name!r}")
    # An ssm entry with the coupling rate at exactly zero has the same
    # dynamics as its one-state counterpart; validate and run it as such.
    if "b3" in KIND_KEYS[kind] and preset.b3 == 0.0:
        kind = kind.removesuffix("ssm")
    return OptimizerSpec(
        kind=kind,
        name=name,
        preset=preset,
        bias_mode=_get_str(raw, "bias_mode", OptimizerSpec.bias_mode, path, BIAS_MODES),
        beta=_get_number(raw, "beta", OptimizerSpec.beta, path),
    )


def _parse_milestones(raw: dict) -> tuple[tuple[int, float], ...]:
    path = "schedule"
    _check_keys(raw, ("milestones",), ("milestones",), path)
    seq = raw["milestones"]
    if not isinstance(seq, list):
        raise ParseError(f"{path}.milestones: expected a list of [iteration, multiplier] pairs")
    out = []
    for i, pair in enumerate(seq):
        ok = (
            isinstance(pair, list)
            and len(pair) == 2
            and isinstance(pair[0], int)
            and not isinstance(pair[0], bool)
            and isinstance(pair[1], (int, float))
            and not isinstance(pair[1], bool)
        )
        if not ok:
            raise ParseError(f"{path}.milestones[{i}]: expected an [iteration, multiplier] pair")
        out.append((pair[0], _as_float(pair[1], f"{path}.milestones[{i}]")))
    return tuple(out)


def _validate_entries(optimizers: tuple[OptimizerSpec, ...]):
    """Every entry's failed conditions (see OptimizerSpec.violations), named
    by the entry, in one ValidationError."""
    violations = [f"optimizers[{i}]: {name}" for i, spec in enumerate(optimizers) for name in spec.violations()]
    if violations:
        raise ValidationError(violations)


def _finite_number(token: str) -> float:
    # json.loads maps NaN, Infinity and overflowing literals such as 1e999
    # to non-finite floats; no config field accepts one.
    value = float(token)
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {token} is not allowed")
    return value


def load_config(path) -> ExperimentConfig:
    """Read, strictly parse, and validate a JSON experiment config.

    Raises ParseError for structural problems (bad JSON with line/column
    context, non-finite numbers, unknown or missing keys, wrong types) and
    ValidationError: first for run settings that fail the run loop's own
    check (flow._check_run), then with every named violation across all
    optimizer entries for hyperparameters that fail the per-kind
    conditions, and only then for an objective that its factory rejects.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text, parse_constant=_finite_number, parse_float=_finite_number)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    raw = _expect_mapping(raw, "config")
    _check_keys(
        raw,
        ("objective", "optimizers", "iterations", "record_stride", "threshold", "schedule", "output_dir"),
        ("objective", "optimizers"),
        "",
    )
    objective = _parse_objective(_expect_mapping(raw["objective"], "objective"))
    entries = raw["optimizers"]
    if not isinstance(entries, list) or not entries:
        raise ParseError("optimizers: expected a non-empty list")
    optimizers = tuple(
        _parse_optimizer(_expect_mapping(entry, f"optimizers[{i}]"), i)
        for i, entry in enumerate(entries)
    )
    # arguments are read left to right: the order in which faults are reported
    config = ExperimentConfig(
        objective,
        optimizers,
        **_get_fields(raw, ExperimentConfig, ("iterations", "record_stride", "threshold"), "config"),
        milestones=_parse_milestones(_expect_mapping(raw["schedule"], "schedule")) if "schedule" in raw else (),
        **_get_fields(raw, ExperimentConfig, ("output_dir",), "config"),
    )
    _check_run(config.iterations, config.record_stride, config.threshold)
    # Constructing a schedule validates milestone ordering and positivity.
    LrSchedule(base_eta=1.0, milestones=config.milestones)
    _validate_entries(optimizers)
    # last: every fault above is reported first, and each factory states its own conditions
    object.__setattr__(config, "built", build_objective(objective))
    return config


def _objective_kind(spec: ObjectiveSpec) -> tuple:
    if spec.kind not in OBJECTIVE_KINDS:
        raise ParseError(f"objective.kind: unknown kind {spec.kind!r}")
    return OBJECTIVE_KINDS[spec.kind]


def default_x0(spec: ObjectiveSpec) -> np.ndarray:
    """The spec's x0, or its kind's starting point (see OBJECTIVE_KINDS):
    quadratic starts at the all-ones point, the valley benchmark at the
    classic (-1.2, 1, ..., 1), logistic regression at zero weights.
    """
    if spec.x0 is not None:
        return np.array(spec.x0, dtype=float)
    return _objective_kind(spec)[2](spec.dim)


def build_objective(spec: ObjectiveSpec) -> Objective:
    """Materialize the objective named by a spec."""
    factory, keys, _ = _objective_kind(spec)
    try:
        return factory(spec.dim, *(getattr(spec, key) for key in keys))
    except ValueError as exc:
        raise ValidationError([f"objective: {exc}"]) from exc


def _safe_name(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in name)


def resolve_out_dir(config: ExperimentConfig) -> Path:
    """Output directory: SSMOPT_OUT_DIR wins over the config value."""
    return Path(os.environ.get("SSMOPT_OUT_DIR") or config.output_dir)


def _json_value(value):
    return None if isinstance(value, float) and math.isnan(value) else value


def _report_record(report: RunReport) -> dict:
    record = {c: _json_value(getattr(report, c)) for c in SUMMARY_COLUMNS}
    record["diagnostics"] = {k: _json_value(v) for k, v in sorted(report.diagnostics.items())}
    return record


def _write_report_json(reports: list[RunReport], path: Path):
    payload = [_report_record(r) for r in reports]
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_row(out: Path, prefix: str, i: int, spec: OptimizerSpec, outcome, diagnose) -> RunReport:
    """Write and report the outcome of one entry of a batch."""
    try:
        if isinstance(outcome, Exception):
            raise outcome
        traj, report = outcome
        traj.to_csv(out / f"{prefix}_{i:02d}_{_safe_name(spec.name)}.csv")
        if diagnose is not None and "error" not in report.diagnostics:
            diagnose(i, traj, report)
        return report
    except Exception as exc:
        # Per-run isolation: one failure must not stop the comparison.
        return RunReport.failure(spec.name, f"{type(exc).__name__}: {exc}")


def _run_entries(
    config: ExperimentConfig,
    out_dir,
    indices: list[int],
    run_batch: Callable,
    prefix: str,
    report_name: str,
    diagnose: Optional[Callable] = None,
) -> list[RunReport]:
    """Run the entries at indices in one batched call and write the artifacts.

    run_batch(objective, x0, specs) returns, per entry, its Trajectory and
    RunReport (see flow._run_rows) or the exception its solo run raises.
    Each trajectory is written to {prefix}_{index:02d}_{name}.csv in turn;
    diagnose(index, trajectory, report) may add diagnostics to a run that did
    not fail. The reports land in report_name, in declaration order.
    """
    objective = config.built or build_objective(config.objective)
    out = Path(out_dir) if out_dir is not None else resolve_out_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    specs = [config.optimizers[i] for i in indices]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = run_batch(objective, default_x0(config.objective), specs)
    except Exception as exc:
        outcomes = [exc] * len(specs)
    reports = [
        _write_row(out, prefix, i, spec, outcome, diagnose)
        for i, spec, outcome in zip(indices, specs, outcomes)
    ]
    _write_report_json(reports, out / report_name)
    return reports


def run_experiment(config: ExperimentConfig, out_dir=None) -> list[RunReport]:
    """Run every optimizer entry on the configured objective, all of them
    together as one batch (see discrete.run_discrete_batch).

    All runs share the same objective instance and starting point. Each run
    writes traj_{index:02d}_{name}.csv into the output directory; the full
    report list lands in report.json (declaration order). A failed run yields
    a report with NaN metrics and the error message in its diagnostics, and
    the remaining runs still execute; a run that diverges is one of them.
    """

    def run_batch(objective, x0, specs):
        return run_discrete_batch(
            specs, objective, x0, config.iterations, config.milestones, config.threshold, config.record_stride
        )

    indices = list(range(len(config.optimizers)))
    return _run_entries(config, out_dir, indices, run_batch, "traj", "report.json")


def run_compare(config: ExperimentConfig, out_dir=None) -> list[RunReport]:
    """run_experiment plus the sorted comparison table.

    Writes summary.csv (see emit_summary) and summary.json, both ordered by
    best objective value, failed runs last. Returns the reports in
    declaration order.
    """
    out = Path(out_dir) if out_dir is not None else resolve_out_dir(config)
    reports = run_experiment(config, out_dir=out)
    emit_summary(reports, out / "summary.csv")
    _write_report_json(_rank_reports(reports), out / "summary.json")
    return reports


def flow_skipped(config: ExperimentConfig) -> list[int]:
    """The indices of the entries with no flow counterpart (sgd_momentum),
    which run_flows skips."""
    return [i for i, spec in enumerate(config.optimizers) if spec.kind == "sgd_momentum"]


def run_flows(config: ExperimentConfig, dt: float, t_end: float, out_dir=None) -> list[RunReport]:
    """Integrate the continuous-time counterpart of each flow-capable entry.

    All of them are integrated together, as one batch, by the reference
    (RK4) step rule with nu(0) = FLOW_NU0 in every coordinate; each equals
    its solo run bitwise. The entries flow_skipped names have no counterpart
    in this family and are skipped; a config with no other entry is a
    ValidationError. The time column of
    flow_{index:02d}_{name}.csv is physical time; report epochs count
    integrator steps, and a report summarizes the recorded rows (see
    flow.RunStore): a non-finite one fails the flow, as does a state that
    turns non-finite, which ends the flow's CSV at that step. G-AdaGrad
    entries get an energy_residual_max_abs diagnostic; every report flags
    whether the recorded iterates stayed inside the objective's test box.
    A grid that integrate_batch rejects is a ValueError before any output.
    """
    _check_grid(dt, t_end)
    skipped = flow_skipped(config)
    indices = [i for i in range(len(config.optimizers)) if i not in skipped]
    if not indices:
        raise ValidationError(["optimizers: at least one entry with a flow counterpart"])
    nu0 = np.full(config.objective.dim, FLOW_NU0)
    problems = {}

    def run_batch(objective, x0, specs):
        # per entry: its rows, or the exception its solo run would raise
        outcomes = {}
        for i, spec in zip(indices, specs):
            try:
                problems[i] = preset_flow(PresetKind(spec.kind), spec.preset, objective, x0, nu0)
            except Exception as exc:
                outcomes[i] = exc
        names = [config.optimizers[i].name for i in problems]
        rows = _integrate_rows([*problems.values()], names, rk4_step, dt, t_end, config.record_stride, config.threshold)
        outcomes.update(zip(problems, rows))
        return [outcomes[i] for i in indices]

    def diagnose(i, traj, report):
        if config.optimizers[i].kind == "gadagrad":
            residual = gadagrad_energy_residual(traj, problems[i])
            report.diagnostics["energy_residual_max_abs"] = float(np.max(np.abs(residual)))

    return _run_entries(config, out_dir, indices, run_batch, "flow", "flow_report.json", diagnose)


def _rank_reports(reports: list[RunReport]) -> list[RunReport]:
    # Stable sort: ties and NaNs keep declaration order, NaNs sink to the end.
    return sorted(reports, key=lambda r: (math.isnan(r.best_f), r.best_f))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_summary(reports: list[RunReport], path=None) -> str:
    """Render the comparison table as CSV text; optionally write it.

    Columns (exactly): optimizer, best_f, epoch_of_best, final_grad_norm,
    iters_to_threshold. Rows are sorted by best_f ascending, failed (NaN)
    runs last, ties in declaration order. An unreached threshold leaves the
    last field empty. Floats use repr for round-trip-exact parsing.
    """
    rows = [SUMMARY_COLUMNS] + [[_format_cell(getattr(r, c)) for c in SUMMARY_COLUMNS] for r in _rank_reports(reports)]
    text = "".join(",".join(row) + "\n" for row in rows)
    if path is not None:
        Path(path).write_text(text)
    return text
