"""Experiment harness: strict JSON config ingestion, batch execution of the
discrete steppers and their continuous-time counterparts, and artifact
emission (per-run trajectory CSVs, report JSON, sorted comparison tables).

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
          "name": str,             default: the kind
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

An entry takes only the keys its kind reads, besides kind and name:
gadagrad delta, epsilon, eta and c; adam and adabelief b1, b2, delta,
epsilon, eta and bias_mode; adamssm and adabeliefssm those and b3;
sgd_momentum eta and beta. Any other key is a ParseError.

An ssm-kind entry with b3 exactly 0 is canonicalized to the matching
non-ssm kind before validation: the dynamics coincide exactly at b3 = 0, so
comparison configs can express that identity while direct preset validation
stays strict.

Reports deliberately omit wall time so repeated invocations of the same
config produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    PresetKind,
    PresetParams,
    ValidationError,
    validate_preset,
)
from .discrete import (
    BIAS_MODES,
    LrSchedule,
    RunReport,
    RunSummary,
    bias_alpha,
    run_discrete,
    step_preset,
    step_sgd_momentum,
)
from .flow import gadagrad_energy_residual, integrate_batch, preset_flow, rk4_step
from .objectives import Objective, make_logistic, make_quadratic, make_rosenbrock

SUMMARY_COLUMNS = ("optimizer", "best_f", "epoch_of_best", "final_grad_norm", "iters_to_threshold")

OBJECTIVE_KINDS = ("quadratic", "rosenbrock", "logistic")
PRESET_OPTIMIZER_KINDS = ("gadagrad", "adam", "adabelief", "adamssm", "adabeliefssm")
OPTIMIZER_KINDS = PRESET_OPTIMIZER_KINDS + ("sgd_momentum",)

# the keys each optimizer kind reads, besides "kind" and "name"
_MOMENT_KEYS = ("b1", "b2", "delta", "epsilon", "eta", "bias_mode")
_KIND_KEYS = {
    "gadagrad": ("delta", "epsilon", "eta", "c"),
    "adam": _MOMENT_KEYS,
    "adabelief": _MOMENT_KEYS,
    "adamssm": _MOMENT_KEYS + ("b3",),
    "adabeliefssm": _MOMENT_KEYS + ("b3",),
    "sgd_momentum": ("eta", "beta"),
}

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


@dataclass(frozen=True)
class OptimizerSpec:
    """One optimizer entry: a kind, display name, and its hyperparameters.

    preset carries the rates for the adaptive kinds (sgd_momentum uses only
    its eta); beta is the heavy-ball momentum factor.
    """

    kind: str
    name: str
    preset: PresetParams
    bias_mode: str = "paper"
    beta: float = 0.9


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; construction via load_config."""

    objective: ObjectiveSpec
    optimizers: tuple[OptimizerSpec, ...]
    iterations: int = 1000
    record_stride: int = 1
    threshold: float = 1e-4
    milestones: tuple[tuple[int, float], ...] = ()
    output_dir: str = "runs"


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, allowed: tuple[str, ...], required: tuple[str, ...], path: str):
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


def _parse_objective(raw: dict) -> ObjectiveSpec:
    path = "objective"
    _check_keys(raw, ("kind", "dim", "cond", "n_samples", "seed", "x0"), ("kind",), path)
    kind = _get_str(raw, "kind", "", path, OBJECTIVE_KINDS)
    if kind != "quadratic" and "cond" in raw:
        raise ParseError(f"{path}.cond: only valid for the quadratic objective")
    if kind != "logistic":
        for key in ("n_samples", "seed"):
            if key in raw:
                raise ParseError(f"{path}.{key}: only valid for the logistic objective")
    dim = _get_int(raw, "dim", 2, path)
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
    return ObjectiveSpec(
        kind=kind,
        dim=dim,
        cond=_get_number(raw, "cond", 100.0, path),
        n_samples=_get_int(raw, "n_samples", 40, path),
        seed=_get_int(raw, "seed", 0, path),
        x0=x0,
    )


_PRESET_FIELD_DEFAULTS = PresetParams()


def _parse_optimizer(raw: dict, index: int) -> OptimizerSpec:
    path = f"optimizers[{index}]"
    _check_keys(
        raw,
        ("kind", "name", "b1", "b2", "b3", "delta", "epsilon", "eta", "c", "bias_mode", "beta"),
        ("kind",),
        path,
    )
    kind = _get_str(raw, "kind", "", path, OPTIMIZER_KINDS)
    for key in raw:
        if key not in ("kind", "name") and key not in _KIND_KEYS[kind]:
            raise ParseError(f"{path}.{key}: not valid for {kind}")
    preset = PresetParams(
        b1=_get_number(raw, "b1", _PRESET_FIELD_DEFAULTS.b1, path),
        b2=_get_number(raw, "b2", _PRESET_FIELD_DEFAULTS.b2, path),
        b3=_get_number(raw, "b3", _PRESET_FIELD_DEFAULTS.b3, path),
        delta=_get_number(raw, "delta", _PRESET_FIELD_DEFAULTS.delta, path),
        epsilon=_get_number(raw, "epsilon", _PRESET_FIELD_DEFAULTS.epsilon, path),
        eta=_get_number(raw, "eta", _PRESET_FIELD_DEFAULTS.eta, path),
        c=_get_number(raw, "c", _PRESET_FIELD_DEFAULTS.c, path),
    )
    name = _get_str(raw, "name", kind, path)
    # An ssm entry with the coupling rate at exactly zero has the same
    # dynamics as its one-state counterpart; validate and run it as such.
    if kind == "adamssm" and preset.b3 == 0.0:
        kind = "adam"
    elif kind == "adabeliefssm" and preset.b3 == 0.0:
        kind = "adabelief"
    return OptimizerSpec(
        kind=kind,
        name=name,
        preset=preset,
        bias_mode=_get_str(raw, "bias_mode", "paper", path, BIAS_MODES),
        beta=_get_number(raw, "beta", 0.9, path),
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
    """Run preset validation on every entry, aggregating named violations."""
    violations: list[str] = []
    for i, spec in enumerate(optimizers):
        prefix = f"optimizers[{i}]"
        if spec.kind == "sgd_momentum":
            if not 0.0 <= spec.beta < 1.0:
                violations.append(f"{prefix}: 0 <= beta < 1")
            if not spec.preset.eta > 0:
                violations.append(f"{prefix}: eta > 0")
            continue
        try:
            validate_preset(spec.preset, PresetKind(spec.kind))
        except ValidationError as exc:
            violations.extend(f"{prefix}: {name}" for name in exc.violations)
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
    ValidationError, with every named violation across all optimizer
    entries, for hyperparameters that fail the per-kind conditions.
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
    iterations = _get_int(raw, "iterations", 1000, "config")
    record_stride = _get_int(raw, "record_stride", 1, "config")
    threshold = _get_number(raw, "threshold", 1e-4, "config")
    milestones = _parse_milestones(_expect_mapping(raw["schedule"], "schedule")) if "schedule" in raw else ()
    output_dir = _get_str(raw, "output_dir", "runs", "config")

    schema_violations = []
    if iterations < 0:
        schema_violations.append("iterations >= 0")
    if record_stride < 1:
        schema_violations.append("record_stride >= 1")
    if not threshold > 0:
        schema_violations.append("threshold > 0")
    if schema_violations:
        raise ValidationError(schema_violations)
    # Constructing a schedule validates milestone ordering and positivity.
    LrSchedule(base_eta=1.0, milestones=milestones)
    _validate_entries(optimizers)
    return ExperimentConfig(
        objective=objective,
        optimizers=optimizers,
        iterations=iterations,
        record_stride=record_stride,
        threshold=threshold,
        milestones=milestones,
        output_dir=output_dir,
    )


def default_x0(spec: ObjectiveSpec) -> np.ndarray:
    """Starting point used when the config gives none.

    Quadratic starts at the all-ones point, the valley benchmark at the
    classic (-1.2, 1, ..., 1), logistic regression at zero weights.
    """
    if spec.x0 is not None:
        return np.array(spec.x0, dtype=float)
    if spec.kind == "rosenbrock":
        x0 = np.ones(spec.dim)
        x0[0] = -1.2
        return x0
    if spec.kind == "logistic":
        return np.zeros(spec.dim)
    return np.ones(spec.dim)


def build_objective(spec: ObjectiveSpec) -> Objective:
    """Materialize the objective named by a spec."""
    try:
        if spec.kind == "quadratic":
            return make_quadratic(spec.dim, spec.cond)
        if spec.kind == "rosenbrock":
            return make_rosenbrock(spec.dim)
        if spec.kind == "logistic":
            return make_logistic(spec.dim, spec.n_samples, spec.seed)
    except ValueError as exc:
        raise ValidationError([f"objective: {exc}"]) from exc
    raise ParseError(f"objective.kind: unknown kind {spec.kind!r}")


def _make_stepper(spec: OptimizerSpec):
    """run_discrete's stepper for an entry, plus the recorded bias-factor
    function (None for the kinds without bias correction)."""
    if spec.kind == "sgd_momentum":
        return partial(step_sgd_momentum, beta=spec.beta), None
    kind = PresetKind(spec.kind)
    stepper = partial(step_preset, kind=kind, preset=spec.preset, bias_mode=spec.bias_mode)
    if kind is PresetKind.GADAGRAD:
        return stepper, None
    return stepper, partial(bias_alpha, spec.preset, bias_mode=spec.bias_mode)


def _error_report(name: str, exc: Exception) -> RunReport:
    return RunReport.failure(name, f"{type(exc).__name__}: {exc}")


def _safe_name(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in name)


def resolve_out_dir(config: ExperimentConfig) -> Path:
    """Output directory: SSMOPT_OUT_DIR wins over the config value."""
    return Path(os.environ.get("SSMOPT_OUT_DIR") or config.output_dir)


def _report_record(report: RunReport) -> dict:
    # Wall time is intentionally excluded: artifacts must be byte-stable.
    diagnostics = {
        k: (None if isinstance(v, float) and math.isnan(v) else v)
        for k, v in sorted(report.diagnostics.items())
    }
    return {
        "optimizer": report.optimizer,
        "best_f": None if math.isnan(report.best_f) else report.best_f,
        "epoch_of_best": report.epoch_of_best,
        "final_grad_norm": None if math.isnan(report.final_grad_norm) else report.final_grad_norm,
        "iters_to_threshold": report.iters_to_threshold,
        "diagnostics": diagnostics,
    }


def _write_report_json(reports: list[RunReport], path: Path):
    payload = [_report_record(r) for r in reports]
    path.write_text(json.dumps(payload, indent=2) + "\n")


def run_experiment(config: ExperimentConfig, out_dir=None) -> list[RunReport]:
    """Run every optimizer entry on the configured objective.

    All runs share the same objective instance and starting point. Each run
    writes traj_{index:02d}_{name}.csv into the output directory; the full
    report list lands in report.json (declaration order). A failed run yields
    a report with NaN metrics and the error message in its diagnostics, and
    the remaining runs still execute; a run that diverges is one of them.
    """
    out = Path(out_dir) if out_dir is not None else resolve_out_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    objective = build_objective(config.objective)
    x0 = default_x0(config.objective)
    reports: list[RunReport] = []
    for i, spec in enumerate(config.optimizers):
        stepper, alpha_fn = _make_stepper(spec)
        schedule = LrSchedule(base_eta=spec.preset.eta, milestones=config.milestones)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                traj, report = run_discrete(
                    stepper,
                    objective,
                    x0,
                    config.iterations,
                    schedule=schedule,
                    threshold=config.threshold,
                    record_stride=config.record_stride,
                    alpha_fn=alpha_fn,
                    name=spec.name,
                )
            traj.to_csv(out / f"traj_{i:02d}_{_safe_name(spec.name)}.csv")
        except Exception as exc:
            # Per-run isolation: one failure must not stop the comparison.
            report = _error_report(spec.name, exc)
        reports.append(report)
    _write_report_json(reports, out / "report.json")
    return reports


def run_compare(config: ExperimentConfig, out_dir=None) -> list[RunReport]:
    """run_experiment plus the sorted comparison table.

    Writes summary.csv (see emit_summary) and summary.json, both ordered by
    best objective value, failed runs last. Returns the reports in
    declaration order.
    """
    out = Path(out_dir) if out_dir is not None else resolve_out_dir(config)
    reports = run_experiment(config, out_dir=out)
    emit_summary(reports, out / "summary.csv")
    ranked = _rank_reports(reports)
    (out / "summary.json").write_text(
        json.dumps([_report_record(r) for r in ranked], indent=2) + "\n"
    )
    return reports


def run_flows(config: ExperimentConfig, dt: float, t_end: float, out_dir=None) -> list[RunReport]:
    """Integrate the continuous-time counterpart of each flow-capable entry.

    All of them are integrated together, as one batch, by the reference
    (RK4) step rule with nu(0) = FLOW_NU0 in every coordinate; each equals
    its solo run bitwise. sgd_momentum entries have no counterpart in this
    family and are skipped with a note on stderr. The time column of
    flow_{index:02d}_{name}.csv is physical time; report epochs count
    integrator steps, and a report summarizes the recorded rows (see
    RunSummary): a non-finite one fails the flow. G-AdaGrad entries get an
    energy_residual_max_abs diagnostic; every report flags whether the
    recorded iterates stayed inside the objective's test box.
    """
    out = Path(out_dir) if out_dir is not None else resolve_out_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    objective = build_objective(config.objective)
    x0 = default_x0(config.objective)
    nu0 = np.full(config.objective.dim, FLOW_NU0)
    problems = {}
    # per entry: its Trajectory, or the exception its solo run would raise
    outcomes = {}
    for i, spec in enumerate(config.optimizers):
        if spec.kind == "sgd_momentum":
            print(
                f"note: skipping optimizers[{i}] ({spec.name}): "
                "sgd_momentum has no flow counterpart",
                file=sys.stderr,
            )
            continue
        try:
            problems[i] = preset_flow(PresetKind(spec.kind), spec.preset, objective, x0, nu0)
        except Exception as exc:
            outcomes[i] = exc
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            batch = integrate_batch(list(problems.values()), rk4_step, dt, t_end, config.record_stride)
        outcomes.update(zip(problems, batch))
    except Exception as exc:
        outcomes.update(dict.fromkeys(problems, exc))
    reports: list[RunReport] = []
    for i in sorted(outcomes):
        spec = config.optimizers[i]
        try:
            traj = outcomes[i]
            if isinstance(traj, Exception):
                raise traj
            traj.to_csv(out / f"flow_{i:02d}_{_safe_name(spec.name)}.csv")
            summary = RunSummary(config.threshold, objective.box)
            for t, state, f, grad_norm in zip(traj.times, traj.states, traj.f_values, traj.grad_norms):
                if not summary.add(int(round(t / dt)), state, f, grad_norm):
                    break
            report = summary.report(spec.name)
            if spec.kind == "gadagrad" and summary.diverged_at is None:
                residual = gadagrad_energy_residual(traj, problems[i])
                report.diagnostics["energy_residual_max_abs"] = float(np.max(np.abs(residual)))
        except Exception as exc:
            report = _error_report(spec.name, exc)
        reports.append(report)
    _write_report_json(reports, out / "flow_report.json")
    return reports


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
    lines = [",".join(SUMMARY_COLUMNS)]
    for r in _rank_reports(reports):
        lines.append(
            ",".join(
                (
                    r.optimizer,
                    _format_cell(r.best_f),
                    _format_cell(r.epoch_of_best),
                    _format_cell(r.final_grad_norm),
                    _format_cell(r.iters_to_threshold),
                )
            )
        )
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text
