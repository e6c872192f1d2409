"""Benchmark of the ssmopt command-line tool.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Runs one workload (see workloads.py) in-process through ssmopt.cli.main,
with artifacts written to a scratch directory under perfbench/out via
SSMOPT_OUT_DIR, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics with no instrumentation: the
command's wall time over as many passes as fit in --seconds (at least
three) and fresh-process set-up time, both at a reference speed (see
measure_e2e), peak memory, artifact size and the share of runs that
converged. --trace 1 alternates a coarse pass (one span
per optimizer run) with a fully traced pass and reports per-layer metrics;
spans are written to perfbench/out/<workload>-spans.npz.

Every pass is checked: exit code 0, no failed run, the printed table equals
summary.csv, artifacts byte-identical to the first pass of the same seed,
and the final iterate of one compare entry per kind bitwise equal to the
plain-numpy transcription in reference.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One closed-loop caller; BLAS threads pinned to one so a matrix-vector
# product does not compete with the interpreter thread for the cores.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
SETUPS_PER_GAP = 2
CAL_STEPS = 60000
# Calibration time at the reference speed, about this loop's time on a
# shared 2-vCPU 2 GHz Xeon VM.
CAL_REF_S = 0.75

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ssmopt
config = ssmopt.load_config(sys.argv[2])
ssmopt.build_objective(config.objective)
print(repr(time.perf_counter() - t0))
"""

E2E_UNITS = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "converged_frac": "frac",
}

LAYER_UNITS = {
    "objectives.grad.calls": "count",
    "objectives.grad.us": "us",
    "objectives.f.calls": "count",
    "objectives.f.us": "us",
    "objectives.build_s": "s",
    "discrete.step.calls": "count",
    "discrete.step.us": "us",
    "discrete.bias.us": "us",
    "discrete.run.self_s": "s",
    "discrete.run.us_per_iter": "us",
    "discrete.run.overhead_x": "x",
    "flow.rhs.calls": "count",
    "flow.rhs.self_us": "us",
    "flow.integrate.self_s": "s",
    "flow.step.us": "us",
    "core.alpha_g.calls": "count",
    "core.alpha_g.us": "us",
    "flow.energy_residual_s": "s",
    "harness.load_config_s": "s",
    "harness.emit_s": "s",
    "harness.emit_bytes": "bytes",
    "harness.records": "count",
    "trace.overhead_x": "x",
    "objectives.share": "frac",
    "discrete.share": "frac",
    "flow.share": "frac",
    "core.share": "frac",
    "harness.share": "frac",
}


class Bench:
    """One benchmark run: a workload config, a scratch directory, and the
    failure tally of every pass made."""

    def __init__(self, workload: str, seed: int, work: Path):
        import workloads

        self.workload = workload
        self.config = workloads.make_config(workload, seed)
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1))
        self.argv = workloads.command(workload, str(self.config_path))
        self.probe_config = workloads.probe_config(self.config)
        self.probe_path = work / "probe.json"
        self.probe_path.write_text(json.dumps(self.probe_config, indent=1))
        self.probe_argv = workloads.probe_command(workload, str(self.probe_path))
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}
        self.passes = 0

    def run_pass(self, argv, tracer=None, run_id=0, layers=None) -> tuple[float, Path]:
        """Run the CLI once into a fresh directory; check and return its wall time."""
        from ssmopt import cli
        from spans import instrumented

        out = self.work / f"pass{self.passes:03d}"
        self.passes += 1
        out.mkdir()
        os.environ["SSMOPT_OUT_DIR"] = str(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(instrumented(tracer, layers))
                stack.enter_context(tracer.root("cli.main", run_id))
            stack.enter_context(contextlib.redirect_stdout(stdout))
            stack.enter_context(contextlib.redirect_stderr(stderr))
            t0 = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - t0
        self._check(argv, out, rc, stdout.getvalue(), stderr.getvalue())
        return wall, out

    def _check(self, argv, out: Path, rc: int, stdout: str, stderr: str):
        is_flow = argv[0] == "flow"
        config = self.config if argv[1] == str(self.config_path) else self.probe_config
        entries = len(config["optimizers"])
        self.attempted += entries
        tag = f"{out.name} ({argv[0]})"
        if rc != 0:
            self.failures.append(f"{tag}: exit code {rc}: {stderr.strip()}")
        elif stderr:
            self.failures.append(f"{tag}: unexpected stderr: {stderr.strip()}")
        report_path = out / ("flow_report.json" if is_flow else "report.json")
        try:
            records = json.loads(report_path.read_text())
        except (OSError, ValueError) as exc:
            self.failures.append(f"{tag}: unreadable report: {exc}")
            return
        if len(records) != entries:
            self.failures.append(f"{tag}: {len(records)} reports for {entries} entries")
        for r in records:
            best = r.get("best_f")
            if "error" in r.get("diagnostics", {}) or not (isinstance(best, float) and math.isfinite(best)):
                self.failures.append(f"{tag}: run {r.get('optimizer')} failed: {r.get('diagnostics')}")
        if not is_flow and stdout != (out / "summary.csv").read_text():
            self.failures.append(f"{tag}: printed table differs from summary.csv")
        digest = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
        }
        first = self.digests.setdefault(" ".join(argv), digest)
        if digest != first:
            changed = sorted(k for k in set(first) | set(digest) if first.get(k) != digest.get(k))
            self.failures.append(f"{tag}: artifacts differ from the first pass: {changed}")

    def check_discrete(self, config: dict, out: Path) -> float:
        """Compare one entry per kind with the plain-numpy reference and
        return the reference loop's time per iteration in seconds."""
        from reference import check_final_iterates
        from ssmopt import build_objective, load_config

        path = self.config_path if config is self.config else self.probe_path
        grad = build_objective(load_config(path).objective).eval_grad
        mismatches, seconds_per_iter = check_final_iterates(config, grad, out)
        self.failures.extend(f"{out.name}: {m}" for m in mismatches)
        return seconds_per_iter


def converged_frac(out: Path) -> float:
    report = out / ("flow_report.json" if (out / "flow_report.json").exists() else "report.json")
    records = json.loads(report.read_text())
    return sum(r["iters_to_threshold"] is not None for r in records) / len(records)


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir())


def csv_records(out: Path) -> int:
    rows = 0
    for p in out.glob("*.csv"):
        if p.name != "summary.csv":
            with open(p) as fh:
                rows += sum(1 for _ in fh) - 1
    return rows


def setup_time(config_path: Path) -> float:
    """One fresh process timing import + load_config + build_objective."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def calibrate() -> float:
    """Seconds taken by a fixed loop that does not touch ssmopt: small-array
    numpy steps like an optimizer's, plus matrix-vector products like the
    logistic objective's."""
    import numpy as np

    x = np.linspace(0.5, 1.5, 2)
    a = np.linspace(-1.0, 1.0, 2000 * 100).reshape(2000, 100)
    w = np.zeros(100)
    t0 = time.perf_counter()
    for i in range(CAL_STEPS):
        g = 2.0 * x - 1.0
        x = x - 1e-3 * g / (np.sqrt(g * g) + 1e-8)
        if i % 20 == 0:
            w = 0.5 * w + 1e-3 * (a.T @ np.tanh(a @ w))
    return time.perf_counter() - t0


def measure_e2e(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Passes of the command, with a calibration sample and set-up samples
    in every gap, so that all three cover the same stretch of time.

    The host's speed drifts by up to 1.5x over tens of seconds, which moves
    raw times from run to run far more than any bound could allow. Times are
    therefore reported at a reference speed: the mean pass time (and the
    median set-up time) over the mean calibration time, times CAL_REF_S.
    Raw times are printed and kept in the result file.
    """
    walls, cals, setups, cycles = [], [], [], []
    setup_time(bench.config_path)  # warm-up: writes compiled bytecode

    def gap():
        cals.append(calibrate())
        setups.extend(setup_time(bench.config_path) for _ in range(SETUPS_PER_GAP))

    first_out = None
    start = time.perf_counter()
    gap()
    # Stop before a cycle that would end past --seconds.
    while len(walls) < MIN_PASSES or time.perf_counter() - start + statistics.median(cycles) <= seconds:
        t0 = time.perf_counter()
        wall, out = bench.run_pass(bench.argv)
        walls.append(wall)
        gap()
        cycles.append(time.perf_counter() - t0)
        if first_out is None:
            first_out = out
        else:
            shutil.rmtree(out)
    if bench.argv[0] == "compare":
        bench.check_discrete(bench.config, first_out)
    speed = CAL_REF_S / statistics.mean(cals)
    metrics = {
        "wall_ref_s": statistics.mean(walls) * speed,
        "setup_s": statistics.median(setups) * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_mb": artifact_bytes(first_out) / 1e6,
        "converged_frac": converged_frac(first_out),
    }
    detail = {
        "passes": len(walls),
        "raw_wall_s_median": statistics.median(walls),
        "raw_setup_s_median": statistics.median(setups),
        "wall_s": walls,
        "setup_s": setups,
        "calibration_s": cals,
    }
    return metrics, detail


def layer_metrics(stats: dict, coarse: dict, bare_s_per_iter: float) -> dict:
    """Per-layer metrics of one traced pass (stats) and the coarse pass of
    the same command (coarse), both from spans.summarize."""

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def seconds(name, key="total", of=None):
        return (of if of is not None else stats).get(name, {}).get(key, 0.0)

    def per_call_us(name, key="total"):
        return 1e6 * seconds(name, key) / calls(name) if calls(name) else 0.0

    steps = calls("discrete.step")
    rk4_steps = calls("flow.rhs") / 4
    us_per_iter = 1e6 * seconds("discrete.run", of=coarse) / steps if steps else 0.0
    return {
        "objectives.grad.calls": calls("objectives.grad"),
        "objectives.grad.us": per_call_us("objectives.grad"),
        "objectives.f.calls": calls("objectives.f"),
        "objectives.f.us": per_call_us("objectives.f"),
        "objectives.build_s": seconds("objectives.build"),
        "discrete.step.calls": steps,
        "discrete.step.us": per_call_us("discrete.step"),
        "discrete.bias.us": per_call_us("discrete.bias"),
        "discrete.run.self_s": seconds("discrete.run", "self"),
        "discrete.run.us_per_iter": us_per_iter,
        "discrete.run.overhead_x": us_per_iter / (1e6 * bare_s_per_iter) if bare_s_per_iter else 0.0,
        "flow.rhs.calls": calls("flow.rhs"),
        "flow.rhs.self_us": per_call_us("flow.rhs", "self"),
        "flow.integrate.self_s": seconds("flow.integrate", "self"),
        "flow.step.us": 1e6 * seconds("flow.integrate", of=coarse) / rk4_steps if rk4_steps else 0.0,
        "core.alpha_g.calls": calls("core.alpha_g"),
        "core.alpha_g.us": per_call_us("core.alpha_g"),
        "flow.energy_residual_s": seconds("flow.energy_residual"),
        "harness.load_config_s": seconds("harness.load_config"),
        "harness.emit_s": seconds("harness.emit"),
    }


def layer_shares(stats: dict) -> dict:
    """Self time of each layer over the traced wall time of the command."""
    wall = stats["cli.main"]["total"]
    shares = {f"{layer}.share": 0.0 for layer in ("objectives", "discrete", "flow", "core", "harness")}
    for name, s in stats.items():
        layer = name.split(".")[0]
        key = "harness.share" if layer in ("cli", "harness") else f"{layer}.share"
        shares[key] += s["self"] / wall
    return shares


def measure_layers(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from spans import COARSE, Tracer, summarize

    tracer = Tracer()
    run_id = 0
    coarse_walls, traced_walls, main_stats = [], [], []
    start = time.perf_counter()
    while not traced_walls or (
        time.perf_counter() - start + statistics.median(coarse_walls) + statistics.median(traced_walls) <= seconds
    ):
        # Alternate which pass of the pair goes first, so that drift in the
        # machine's speed does not bias trace.overhead_x.
        order = ("coarse", "traced") if run_id % 4 == 0 else ("traced", "coarse")
        for kind in order:
            if kind == "coarse":
                wall, out = bench.run_pass(bench.argv, tracer, run_id, COARSE)
                coarse_walls.append(wall)
                shutil.rmtree(out)
            else:
                wall, main_out = bench.run_pass(bench.argv, tracer, run_id + 1)
                traced_walls.append(wall)
        main_stats.append((summarize(tracer.spans(run_id + 1)), summarize(tracer.spans(run_id))))
        run_id += 2
    _, probe_out = bench.run_pass(bench.probe_argv, tracer, run_id, COARSE)
    probe_coarse = summarize(tracer.spans(run_id))
    shutil.rmtree(probe_out)
    _, probe_out = bench.run_pass(bench.probe_argv, tracer, run_id + 1)
    probe_stats = summarize(tracer.spans(run_id + 1))

    # The bare loop runs on whichever config the compare command used.
    discrete_config, discrete_out = (
        (bench.config, main_out) if bench.argv[0] == "compare" else (bench.probe_config, probe_out)
    )
    bare = bench.check_discrete(discrete_config, discrete_out)

    probe = layer_metrics(probe_stats, probe_coarse, bare)
    per_pass = []
    for stats, coarse in main_stats:
        m = layer_metrics(stats, coarse, bare)
        # A layer the command does not reach is measured on the probe.
        if not m["discrete.step.calls"]:
            m.update({k: v for k, v in probe.items() if k.startswith("discrete.")})
        if not m["flow.rhs.calls"]:
            m.update({k: v for k, v in probe.items() if k.startswith(("flow.", "core."))})
        m.update(layer_shares(stats))
        per_pass.append(m)
    metrics = {
        k: (statistics.median_low if LAYER_UNITS[k] == "count" else statistics.median)(m[k] for m in per_pass)
        for k in per_pass[0]
    }
    metrics["harness.emit_bytes"] = artifact_bytes(main_out)
    metrics["harness.records"] = csv_records(main_out)
    metrics["trace.overhead_x"] = statistics.median(traced_walls) / statistics.median(coarse_walls)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{bench.workload}-spans.npz")
    detail = {
        "traced_passes": len(traced_walls),
        "coarse_wall_s": coarse_walls,
        "traced_wall_s": traced_walls,
        "bare_us_per_iter": 1e6 * bare,
        "spans": len(tracer.start),
    }
    return metrics, detail


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):  # numpy without show_config(mode=...)
        blas_name = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ssmopt" / "__init__.py").is_file():
        print(f"error: no ssmopt package at {SRC / 'ssmopt'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(args.workload, args.seed, work)
        if args.trace:
            metrics, detail = measure_layers(bench, args.seconds)
            units = LAYER_UNITS
        else:
            metrics, detail = measure_e2e(bench, args.seconds)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = min(len(bench.failures), bench.attempted)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "error_rate": failed / bench.attempted,
        "failures": bench.failures,
        "detail": detail,
        **result,
    }
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(record["env"]))
    for msg in bench.failures:
        print(f"FAIL {msg}")
    print(f"{args.workload} seed {args.seed}: error_rate {failed}/{bench.attempted} = {record['error_rate']:.6g}")
    for k, v in detail.items():
        print(f"  {k}: {v}")
    for k in units:
        print(f"  {k:28s} {metrics[k]:>16.6g} {units[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
