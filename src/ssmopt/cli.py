"""Command-line interface.

Subcommands:
    run <config.json>                 execute the configured optimizers,
                                      write trajectory CSVs and report.json
    compare <config.json>             run plus sorted summary.csv/summary.json
    analyze --b2 <v> [--b3 <v>]       print poles, zeros, p, dc_gain as JSON
    flow <config.json> --dt <v> --t-end <v>
                                      integrate the continuous-time
                                      counterparts with the reference
                                      integrator

The environment variable SSMOPT_OUT_DIR overrides the config's output
directory. Exit codes: 0 success, 1 validation failure (bad config,
hyperparameters or arguments), 2 runtime failure (a run or the command
itself failed). main alone turns rejected input into exit 1: a command
raises its ParseError, or the one ValidationError naming every failed
condition, and main prints it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import SecondMomentLTI, adamssm_tf, dc_gain, poles_zeros, stability_quantity_p
from .core import ValidationError
from .flow import _check_grid
from .harness import (
    ParseError, emit_summary, flow_skipped, load_config, resolve_out_dir, run_compare, run_experiment, run_flows,
)


def _complex_pairs(roots) -> list[list[float]]:
    return [[z.real, z.imag] for z in roots]


def _finish(reports, report_path) -> int:
    failed = [r.optimizer for r in reports if "error" in r.diagnostics]
    if failed:
        print(f"failed runs: {', '.join(failed)} (see {report_path})", file=sys.stderr)
        return 2
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out = resolve_out_dir(config)
    reports = run_experiment(config)
    print(f"wrote {len(reports)} trajectories and report.json to {out}")
    return _finish(reports, out / "report.json")


def _cmd_compare(args) -> int:
    config = load_config(args.config)
    out = resolve_out_dir(config)
    reports = run_compare(config)
    print(emit_summary(reports), end="")
    return _finish(reports, out / "report.json")


def _cmd_flow(args) -> int:
    _check_grid(args.dt, args.t_end, "--dt", "--t-end")
    config = load_config(args.config)
    out = resolve_out_dir(config)
    for i in flow_skipped(config):
        name = config.optimizers[i].name
        print(f"note: skipping optimizers[{i}] ({name}): sgd_momentum has no flow counterpart", file=sys.stderr)
    reports = run_flows(config, args.dt, args.t_end)
    print(f"wrote {len(reports)} flow trajectories and flow_report.json to {out}")
    return _finish(reports, out / "flow_report.json")


def _cmd_analyze(args) -> int:
    tf = adamssm_tf(args.b2, args.b3)
    poles, zeros = poles_zeros(tf)
    lti = SecondMomentLTI(lambda3=args.b2, lambda4=args.b3, lambda5=args.b2 + args.b3)
    payload = {
        "poles": _complex_pairs(poles),
        "zeros": _complex_pairs(zeros),
        "p": stability_quantity_p(lti),
        "dc_gain": dc_gain(tf),
    }
    print(json.dumps(payload, indent=2, allow_nan=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssmopt",
        description="State-space adaptive optimizers: runs, comparisons, and pole analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the configured optimizers")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run and emit the sorted comparison table")
    p_cmp.add_argument("config", help="path to a JSON experiment config")
    p_cmp.set_defaults(func=_cmd_compare)

    p_an = sub.add_parser("analyze", help="pole/zero and stability analysis for given rates")
    p_an.add_argument("--b2", type=float, required=True, help="second-moment rate (> 0)")
    p_an.add_argument("--b3", type=float, default=0.0, help="coupling rate (>= 0, default 0)")
    p_an.set_defaults(func=_cmd_analyze)

    p_flow = sub.add_parser("flow", help="integrate the continuous-time counterparts")
    p_flow.add_argument("config", help="path to a JSON experiment config")
    p_flow.add_argument("--dt", type=float, required=True, help="integration step")
    p_flow.add_argument("--t-end", type=float, required=True, help="final time")
    p_flow.set_defaults(func=_cmd_flow)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
