"""Experiment harness: strict JSON config ingestion, one batched call that
runs every entry of a config (the discrete runs, or their continuous-time
counterparts), and one writer that emits its outcomes as artifacts (per-run
trajectory CSVs, report JSON, sorted comparison tables). A heavy batch runs
as blocks of entries in forked workers, each of which writes its own rows
(see _run_blocks). A batch that cannot start raises before any output; a
run that fails is a failed report, its overflow and invalid operations
included, never a RuntimeWarning.

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
          "name": str,             default: the kind; no comma, '"', CR, LF,
                                   encodable as UTF-8, and a creatable artifact
                                   name (_name_conditions)
          "b1", "b2", "b3", "delta", "epsilon", "eta", "c": floats,
          "bias_mode": "paper" | "beta" | "continuous",     default "paper"
          "beta": float            default 0.9
        }
      ],
      "iterations": int,           default 1000
      "record_stride": int,        default 1
      "threshold": float,          default 1e-4 (grad-norm success cut)
      "schedule": {"milestones": [[iteration, multiplier], ...]},
      "output_dir": str            non-empty, default "runs"; SSMOPT_OUT_DIR overrides
    }

Sizes must give arrays numpy can hold: one row's records (flow._check_run)
and the logistic data buffer (objectives.make_logistic).

Objective kinds are one table, OBJECTIVE_KINDS, as optimizer kinds are
discrete.KIND_KEYS: each kind's factory, its own keys and its default x0.

An entry takes only the keys its kind reads besides kind and name, those
of discrete.KIND_KEYS; any other key is a ParseError. The conditions an
entry must meet are OptimizerSpec.conditions.

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
from typing import Collection, Optional

import numpy as np

from .core import PresetKind, PresetParams, ValidationError, require
from .discrete import BIAS_MODES, KIND_KEYS, LrSchedule, OptimizerSpec, run_discrete_batch
from .flow import RunReport, _check_run, _integrate_rows, _point_of, gadagrad_energy_residual, preset_flow, rk4_step
from .objectives import Objective, make_logistic, make_quadratic, make_rosenbrock

SUMMARY_COLUMNS = ("optimizer", "best_f", "epoch_of_best", "final_grad_norm", "iters_to_threshold")

# nu(0) used when integrating the continuous-time counterpart of an entry.
# The discrete steppers start at nu = 0, but the flows require nu(0) > 0.
FLOW_NU0 = 1.0

# A batch whose per-step objective work, its entries times Objective.work,
# reaches this runs as blocks in forked workers (see _run_blocks).
SPLIT_WORK = 2 ** 16


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
    """A ParseError naming the path of the first key of mapping that is repeated
    (see _unique_keys) or not allowed, else of the first required key missing."""
    def where(key):
        return f"{path}.{key}" if path else key

    for key, value in mapping.items():
        if value is _REPEATED:
            raise ParseError(f"duplicate key '{where(key)}'")
        if key not in allowed:
            raise ParseError(f"unknown key '{where(key)}'")
    for key in required:
        if key not in mapping:
            raise ParseError(f"missing required key '{where(key)}'")


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
    # lone surrogates are the only code points UTF-8 cannot encode
    if any("\ud800" <= ch <= "\udfff" for ch in name):
        raise ParseError(f"{path}.name: a name not encodable as UTF-8 would break summary.csv, got {name!r}")
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
    """Every entry's conditions (see OptimizerSpec.conditions), named by the
    entry, then those of its artifact name (see _name_conditions): one
    ValidationError names each that fails."""
    entries = list(enumerate(optimizers))
    require({
        **{f"optimizers[{i}]: {name}": holds for i, spec in entries for name, holds in spec.conditions().items()},
        # a flow_ name is as long as its traj_ name: both prefixes are four ASCII letters
        **{name: holds for i, spec in entries for name, holds in _name_conditions("traj", i, spec.name).items()},
    })


def _finite_number(token: str) -> float:
    # json.loads maps NaN, Infinity and overflowing literals such as 1e999
    # to non-finite floats; no config field accepts one.
    value = float(token)
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {token} is not allowed")
    return value


# The value of a key repeated in one JSON object, which _check_keys names with its path.
_REPEATED = object()


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads would keep the last of a repeated key and drop the others unread
    mapping = {}
    for key, value in pairs:
        mapping[key] = _REPEATED if key in mapping else value
    return mapping


def load_config(path) -> ExperimentConfig:
    """Read, strictly parse, and validate a JSON experiment config.

    The file is read as UTF-8 whatever the locale. Raises ParseError for
    structural problems (a file that cannot be read or is not UTF-8, bad
    JSON with line/column context, a key repeated in one object, non-finite
    numbers, unknown or missing keys, wrong types) and
    ValidationError: first for run settings that fail the run loop's own
    check (flow._check_run, the size of one row's records at the
    objective's dim included), then for an empty output_dir (Path("") is the
    current directory), then with every named violation across all
    optimizer entries for hyperparameters that fail the per-kind
    conditions and names whose artifact file cannot be created, and only
    then for an objective that its factory rejects. A repeated key is named
    with its path when its object is checked, so an earlier fault comes first.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(
            text, object_pairs_hook=_unique_keys, parse_constant=_finite_number, parse_float=_finite_number
        )
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
    _check_run(config.iterations, config.record_stride, config.threshold, objective.dim)
    require({"output_dir non-empty": config.output_dir != ""})
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
    """Materialize the objective named by a spec: the ValidationError of a
    factory names each violation as objective: <name>."""
    factory, keys, _ = _objective_kind(spec)
    try:
        return factory(spec.dim, *(getattr(spec, key) for key in keys))
    except ValidationError as exc:
        raise ValidationError([f"objective: {name}" for name in exc.violations]) from exc


def _artifact_name(prefix: str, i: int, name: str) -> str:
    """Entry i's trajectory CSV, each character of name but a letter, digit, - or _ as _."""
    return f"{prefix}_{i:02d}_{''.join(ch if ch.isalnum() or ch in '-_' else '_' for ch in name)}.csv"


def _name_conditions(prefix: str, i: int, name: str) -> dict[str, bool]:
    """The conditions under which entry i's artifact file can be created, named
    by the entry: its name encodable in the file-system encoding (os.fsencode)
    and at most 255 bytes there, the NAME_MAX of Linux file systems."""
    try:
        size = len(os.fsencode(_artifact_name(prefix, i, name)))
    except UnicodeEncodeError:
        size = None
    where = f"optimizers[{i}].name: artifact file name"
    return {
        f"{where} encodable in the file-system encoding": size is not None,
        f"{where} at most 255 bytes": size is None or size <= 255,
    }


def resolve_out_dir(config: ExperimentConfig, out_dir=None) -> Path:
    """Output directory: out_dir if given, else SSMOPT_OUT_DIR if set and
    non-empty, else the config's output_dir. An empty choice (Path("") is
    the current directory) is a ValidationError naming output_dir non-empty."""
    out = out_dir if out_dir is not None else os.environ.get("SSMOPT_OUT_DIR") or config.output_dir
    require({"output_dir non-empty": out != ""})
    return Path(out)


def _json_value(value):
    return None if isinstance(value, float) and math.isnan(value) else value


def _report_record(report: RunReport) -> dict:
    record = {c: _json_value(getattr(report, c)) for c in SUMMARY_COLUMNS}
    record["diagnostics"] = {k: _json_value(v) for k, v in sorted(report.diagnostics.items())}
    return record


def _write_report_json(reports: list[RunReport], path: Path):
    payload = [_report_record(r) for r in reports]
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8", newline="\n")


def _write_row(out: Path, prefix: str, i: int, spec: OptimizerSpec, outcome) -> RunReport:
    """Write entry i's Trajectory to out / _artifact_name(prefix, i, spec.name) and
    return its finished report, or the failure of an outcome that raised or cannot be written."""
    try:
        if isinstance(outcome, Exception):
            raise outcome
        traj, report = outcome
        traj.to_csv(out / _artifact_name(prefix, i, spec.name))
        return report
    except Exception as exc:
        # Per-run isolation: one failure must not stop the comparison.
        return RunReport.failure(spec.name, f"{type(exc).__name__}: {exc}")


def _run_blocks(config: ExperimentConfig, out_dir, indices, run, prefix: str, report_name: str) -> list[RunReport]:
    """The one path from a config to its artifacts. Before any output, in this
    order: each entry's _name_conditions, resolve_out_dir(config, out_dir), the
    objective (config.built or build_objective's) and x0 on it (_point_of).
    Then run(block, objective, x0) gives the outcomes of the entries at a list
    of indices, _write_row writes each, report_name the reports in order.

    When the batch's per-step objective work, len(indices) * objective.work,
    reaches SPLIT_WORK and the process can fork (Linux, no other thread
    running), the entries run as contiguous blocks, one per usable CPU and at
    most one per entry: the first here, each other in a forked worker. Every
    row is bitwise its solo run, so the artifacts do not depend on the
    blocks. Nothing is written until every block has run; then each block
    writes its own rows, and a worker hands back only their reports. If a
    block raises, every worker is stopped, nothing is written and the
    exception of the first such block is raised with its type and message.
    Every worker ends in os._exit, and every one is reaped.
    """
    import pickle
    import signal
    import threading

    require({c: h for i in indices for c, h in _name_conditions(prefix, i, config.optimizers[i].name).items()})
    out = resolve_out_dir(config, out_dir)
    objective = config.built or build_objective(config.objective)
    x0 = _point_of(objective, default_x0(config.objective))

    def write(i, outcome):
        return _write_row(out, prefix, i, config.optimizers[i], outcome)

    heavy = len(indices) * objective.work >= SPLIT_WORK and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    n = min(len(os.sched_getaffinity(0)), len(indices)) if heavy and threading.active_count() == 1 else 1
    blocks = [indices[len(indices) * b // n : len(indices) * (b + 1) // n] for b in range(n)]
    go_r, go_w = os.pipe()  # the go-ahead to write: one byte for each worker
    workers = []  # per worker: its pid and the reader of what it sends

    def receive(pid, results):
        try:
            return pickle.load(results)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(f"batch worker {pid} ended without its outcome") from None

    finished = False
    try:
        for block in blocks[1:]:
            results_r, results_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    # the parent holds the only write end: if it dies, the read below ends
                    os.close(go_w)
                    with open(results_w, "wb") as results:
                        try:
                            outcomes, error = run(block, objective, x0), None
                        except Exception as exc:
                            error = exc
                        results.write(pickle.dumps(error))
                        results.flush()
                        if error is None and os.read(go_r, 1):
                            results.write(pickle.dumps([write(i, outcome) for i, outcome in zip(block, outcomes)]))
                finally:
                    os._exit(0)
            os.close(results_w)
            workers.append((pid, open(results_r, "rb")))
        outcomes = run(blocks[0], objective, x0)
        for pid, results in workers:
            error = receive(pid, results)
            if error is not None:
                raise error
        out.mkdir(parents=True, exist_ok=True)
        os.write(go_w, b"w" * len(workers))
        reports = [write(i, outcome) for i, outcome in zip(blocks[0], outcomes)]
        for pid, results in workers:
            reports += receive(pid, results)
        finished = True
    finally:
        os.close(go_r)
        os.close(go_w)
        for pid, results in workers:
            if not finished:
                os.kill(pid, signal.SIGKILL)
            results.close()
            os.waitpid(pid, 0)
    _write_report_json(reports, out / report_name)
    return reports


def run_experiment(config: ExperimentConfig, out_dir=None) -> list[RunReport]:
    """Run every optimizer entry on the configured objective, all of them
    together as one batch (see discrete.run_discrete_batch), a heavy one as
    blocks in forked workers (see _run_blocks).

    All runs share the same objective instance and starting point. Each run
    writes traj_{index:02d}_{name}.csv into the output directory; the full
    report list lands in report.json (declaration order). A failed run yields
    a report with NaN metrics and the error message in its diagnostics, and
    the remaining runs still execute; a run that diverges is one of them. A
    batch that cannot start (no entry, named first, then what _run_blocks
    checks, then what run_discrete_batch raises before any step: milestones
    or run settings that load_config rejects, a failed allocation) raises
    before any output.
    """
    specs = config.optimizers
    require({"optimizers: at least one entry": bool(specs)})

    def run(block, objective, x0):
        return run_discrete_batch(
            [specs[i] for i in block], objective, x0, config.iterations, config.milestones, config.threshold,
            config.record_stride,
        )

    return _run_blocks(config, out_dir, list(range(len(specs))), run, "traj", "report.json")


def run_compare(config: ExperimentConfig, out_dir=None) -> list[RunReport]:
    """run_experiment plus the sorted comparison table in the same directory.

    Writes summary.csv (see emit_summary) and summary.json, both ordered by
    best objective value, failed runs last. Returns the reports in
    declaration order.
    """
    reports = run_experiment(config, out_dir=out_dir)
    out = resolve_out_dir(config, out_dir)
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
    (RK4) step rule with nu(0) = FLOW_NU0 in every coordinate, a heavy
    batch as blocks in forked workers (see _run_blocks); each equals its
    solo run bitwise. The entries flow_skipped names have no counterpart
    in this family and are skipped; a config with no other entry is a
    ValidationError. The time column of flow_{index:02d}_{name}.csv is
    physical time; report epochs count integrator steps, and a report
    summarizes the recorded rows (see flow.RunStore): a non-finite one
    fails the flow, as does a state that turns non-finite, which ends the
    flow's CSV at that step. Each block finishes its reports before any
    output: a G-AdaGrad flow that did not fail gets its
    energy_residual_max_abs diagnostic there (one that raises fails only
    its entry), and every report flags whether the recorded iterates
    stayed inside the test box (objectives.BOX).
    What _run_blocks checks, a grid or run settings that integrate_batch
    rejects (a ValidationError) or any other batch that cannot start raises
    before any output; an entry whose flow cannot be built is a failed run.
    """
    specs, skipped = config.optimizers, flow_skipped(config)
    indices = [i for i in range(len(specs)) if i not in skipped]
    require({"optimizers: at least one entry with a flow counterpart": bool(indices)})

    def run(block, objective, x0):
        nu0 = np.full(objective.dim, FLOW_NU0)
        # per entry: its flow, or the exception its build raised, which is its outcome
        flows = {}
        for i in block:
            try:
                flows[i] = preset_flow(PresetKind(specs[i].kind), specs[i].preset, objective, x0, nu0)
            except Exception as exc:
                flows[i] = exc
        built = [i for i in block if not isinstance(flows[i], Exception)]
        rows = dict(zip(built, _integrate_rows([flows[i] for i in built], [specs[i].name for i in built], rk4_step,
                                               dt, t_end, config.record_stride, config.threshold)))
        for i, row in rows.items():
            if specs[i].kind == "gadagrad" and not isinstance(row, Exception) and "error" not in row[1].diagnostics:
                try:
                    residual = gadagrad_energy_residual(row[0], flows[i])
                    row[1].diagnostics["energy_residual_max_abs"] = float(np.max(np.abs(residual)))
                except Exception as exc:
                    rows[i] = exc  # a residual that raises fails only its own entry
        return [rows.get(i, flows[i]) for i in block]

    return _run_blocks(config, out_dir, indices, run, "flow", "flow_report.json")


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
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    return text
