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
directory. Exit codes: 0 success, 1 validation failure (bad config or
hyperparameters), 2 runtime failure (a run or the command itself failed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .analysis import SecondMomentLTI, adamssm_tf, dc_gain, poles_zeros, stability_quantity_p
from .core import DomainError, ValidationError
from .harness import ParseError, load_config, resolve_out_dir, run_compare, run_experiment, run_flows


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
    print((out / "summary.csv").read_text(), end="")
    return _finish(reports, out / "report.json")


def _cmd_flow(args) -> int:
    if not args.dt > 0:
        print("error: --dt must be positive", file=sys.stderr)
        return 1
    if not args.t_end >= args.dt:
        print("error: --t-end must be at least --dt", file=sys.stderr)
        return 1
    # the condition flow._check_grid enforces, named by the options
    n_steps = args.t_end / args.dt
    if not (math.isfinite(n_steps) and abs(round(n_steps) * args.dt - args.t_end) <= 1e-9 * args.t_end):
        print("error: --t-end must be a whole number of --dt steps", file=sys.stderr)
        return 1
    config = load_config(args.config)
    out = resolve_out_dir(config)
    reports = run_flows(config, args.dt, args.t_end)
    print(f"wrote {len(reports)} flow trajectories and flow_report.json to {out}")
    return _finish(reports, out / "flow_report.json")


def _cmd_analyze(args) -> int:
    if not (math.isfinite(args.b2) and math.isfinite(args.b3)):
        print("error: --b2 and --b3 must be finite", file=sys.stderr)
        return 1
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
    except (ParseError, ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
