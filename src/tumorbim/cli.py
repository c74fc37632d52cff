"""Command-line interface.

Verbs: run (simulate), linstab (stability curves / linear trajectories),
converge (dt or N refinement study), traces (re-emit boundary traces from
a checkpoint).  Exit codes are the `driver.RunStatus` values: 0 complete,
2 topology-proximity halt, 3 solver failure, 4 configuration or
command-line error, or an output path that cannot be written.
"""

import argparse
import math
import re
import sys

import numpy as np

from .config import ConfigError, load_config
from .driver import (RunStatus, StepFailure, convergence_study, reemit_traces,
                     resume, run, write_table)
from .linear import LinearConfig, integrate_linear_odes, stability_curve


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative number as a value: the
    pattern argparse uses in Python 3.11 misses the exponent form, so
    `--dt-ode -1e-3` would stop as an unknown option `-1e-3`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _comma_list(kind):
    """argparse type of a comma list of `kind` values."""
    def parse(text):
        return [kind(v) for v in text.split(",")]
    parse.__name__ = f"{kind.__name__} list"
    return parse


def _finite_float(text):
    """argparse type of a finite float: NaN and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


_finite_float.__name__ = "finite float"


def build_parser():
    parser = _Parser(
        prog="tumorbim",
        description="Sharp-interface vascular tumor growth in an annulus "
                    "via boundary integral equations")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="evolve the interface")
    p_run.add_argument("--config", help="key = value configuration file")
    p_run.add_argument("--resume", help="checkpoint to continue from")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--dt", type=float, help="override time step")
    p_run.add_argument("--n", type=int, help="override marker count N")
    p_run.add_argument("--t-final", type=float, help="override final time")

    p_lin = sub.add_parser("linstab", help="stability curves and linear ODEs")
    p_lin.add_argument("--config", required=True)
    p_lin.add_argument("--mode", type=int, default=2, help="perturbation mode l")
    p_lin.add_argument("--r-min", type=_finite_float, default=0.5)
    p_lin.add_argument("--r-max", type=_finite_float, default=4.0)
    p_lin.add_argument("--num", type=int, default=200, help="radius samples")
    p_lin.add_argument("--evolve", action="store_true",
                       help="integrate R(t), delta/R(t) instead of the "
                            "critical-apoptosis curve")
    p_lin.add_argument("--t-final", type=_finite_float, default=None)
    p_lin.add_argument("--dt-ode", type=float, default=1e-3)
    p_lin.add_argument("--out", required=True, help="output file")

    p_conv = sub.add_parser("converge", help="dt or N refinement study")
    p_conv.add_argument("--config", required=True)
    group = p_conv.add_mutually_exclusive_group(required=True)
    group.add_argument("--dts", type=_comma_list(float),
                       help="comma list of dt values, reference last")
    group.add_argument("--ns", type=_comma_list(int),
                       help="comma list of N values, reference last")
    p_conv.add_argument("--record-interval", type=float, default=None)
    p_conv.add_argument("--jobs", type=int, default=1)
    p_conv.add_argument("--out", required=True, help="study table file")
    p_conv.add_argument("--out-root", default=None,
                        help="directory for member run artifacts")

    p_tr = sub.add_parser("traces", help="re-emit boundary traces")
    p_tr.add_argument("--checkpoint", required=True)
    p_tr.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_run(args):
    if args.resume:
        if args.config or args.dt is not None or args.n is not None:
            raise ConfigError("a resumed run keeps its checkpoint's config: "
                              "--config, --dt and --n do not apply")
        result = resume(args.resume, t_final=args.t_final, out_dir=args.out)
    else:
        if not args.config:
            raise ConfigError("run requires --config (or --resume)")
        overrides = dict(dt=args.dt, n=args.n, t_final=args.t_final,
                         n0=None if args.n is None else 0)
        config = load_config(args.config, **{k: v for k, v in overrides.items()
                                             if v is not None})
        result = run(config, out_dir=args.out)
    print(f"{result.status.name}: {result.message} "
          f"({result.steps_done} steps, {result.wall_time:.1f}s, "
          f"peak GMRES {result.peak_gmres})")
    return result.status


def _cmd_linstab(args):
    config = load_config(args.config)
    if args.num < 1:
        raise ConfigError(f"--num must be >= 1, got {args.num}")
    try:
        # a float out of range in the model raises, as its own checks do
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            lin_cfg = LinearConfig(r0=config.r0, mode=args.mode,
                                   params=config.params(), r_init=config.r_init,
                                   delta_init=config.eps_init)
            if args.evolve:
                t_final = args.t_final if args.t_final is not None else config.t_final
                pred = integrate_linear_odes(lin_cfg, t_final, dt=args.dt_ode)
                columns = ("time", "radius", "delta_over_r")
                rows = list(zip(pred.times, pred.radius, pred.delta_over_r))
                note = " (halted early)" if pred.halted else ""
            else:
                span = f"--r-min {args.r_min:g} to --r-max {args.r_max:g}"
                if not abs(args.r_max - args.r_min) < math.inf:
                    raise ValueError(f"the span {span} overflows")
                radii = np.linspace(args.r_min, args.r_max, args.num)
                radii = radii[radii > config.r0]
                if radii.size == 0:
                    raise ValueError(f"no radius from {span} lies above "
                                     f"R0 = {config.r0:g}")
                rows = stability_curve(lin_cfg, radii)
                columns, note = rows.dtype.names, ""
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except ArithmeticError as exc:
        raise ConfigError(f"linear model at --mode {args.mode}: {exc}") from exc
    write_table(args.out, columns, rows)
    print(f"wrote {len(rows)} rows to {args.out}{note}")
    return RunStatus.COMPLETE


def _cmd_converge(args):
    overrides = ({} if args.record_interval is None
                 else {"record_interval": args.record_interval})
    config = load_config(args.config, **overrides)
    _, results = convergence_study(config, dts=args.dts, ns=args.ns,
                                   jobs=args.jobs, out_root=args.out_root,
                                   out=args.out)
    print(f"wrote study table to {args.out}")
    return max(r.status for r in results)


def _cmd_traces(args):
    try:
        reemit_traces(args.checkpoint, args.out)
    except StepFailure as exc:
        print(f"{RunStatus.SOLVER_FAILURE.name}: {exc}")
        return RunStatus.SOLVER_FAILURE
    print(f"wrote traces to {args.out}")
    return RunStatus.COMPLETE


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2, the proximity-halt code, after
        # printing a usage error
        return RunStatus.CONFIG_ERROR if exc.code else RunStatus.COMPLETE
    handlers = {"run": _cmd_run, "linstab": _cmd_linstab,
                "converge": _cmd_converge, "traces": _cmd_traces}
    try:
        return handlers[args.verb](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return RunStatus.CONFIG_ERROR
    except OSError as exc:
        # an output path that cannot be written, such as a file in place of
        # a directory
        print(f"file error: {exc}", file=sys.stderr)
        return RunStatus.CONFIG_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
