"""Command-line entry point.

Exit codes: 0 success, 2 mathematically out of regime (e.g. the small-budget
bounds with eps >= 1), 3 malformed input. Every JSON artifact embeds the
run configuration and the schema tag "qldp/1" and is strict JSON: floats are
written as their shortest round-trip repr, undefined values as null, and
NaN or infinity never. CSV floats are written with 17 significant digits
and undefined values as empty fields; both round-trip bit-exactly.
"""

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import bounds, channels, divergence, estimation, ldp
from . import optimizer as opt_mod
from . import qfi as qfi_mod
from .exceptions import (
    InvalidInputError,
    OutOfRegimeError,
    QldpError,
    check_count,
)

SCHEMA = "qldp/1"
# a grid and its CSV rows take under 1 MB at the bound, at any dimension
# (MAX_DIM included); each point costs one bound or one channel search
MAX_GRID_POINTS = 1000


def _json(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(args, payload):
    _write(args.out, _json({"schema": SCHEMA, "config": _config_echo(args),
                            "result": payload}))


def _emit_csv(args, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    _write(args.out, buf.getvalue())


def _write(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_echo(args):
    # output destinations are I/O plumbing, not run configuration: omitting
    # them keeps artifacts byte-identical across reruns to different paths
    skip = {"func", "out", "out_dir"}
    return {k: v for k, v in vars(args).items()
            if k not in skip and v is not None}


def _parse_grid(spec):
    """Parse 'lo:hi:n' into a log-spaced grid of n budgets."""
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise QldpError(f"bad grid spec {spec!r}; expected lo:hi:n") from exc
    if not 0 < lo < hi < math.inf or not 2 <= n <= MAX_GRID_POINTS:
        raise InvalidInputError(f"bad grid spec {spec!r}: need 0 < lo < hi < inf, "
                                f"2 <= n <= {MAX_GRID_POINTS}")
    return np.geomspace(lo, hi, n)


def _load_density(path):
    with open(path) as fh:
        data = json.load(fh)
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path}: not a numeric array: {exc}") from None
    # a matrix of [re, im] pairs; whether it is a state is
    # `divergence.hockey_stick`'s check
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise QldpError(f"{path}: expected a row-major array of [re, im] pairs")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _get_family(args):
    d = getattr(args, "dim", None)
    return qfi_mod.family_by_name(args.family, d=d if d is not None else 2)


def _get_channel(args):
    if getattr(args, "channel", None):
        return channels.AffineChannel.load(args.channel)
    if getattr(args, "depolarizing", False):
        d = getattr(args, "dim", None)
        return channels.depolarizing(d if d is not None else 2, args.eps)
    raise QldpError("provide --channel <path> or --depolarizing")


# ---------------------------------------------------------------------------
# subcommands


def cmd_qfi(args):
    fam = _get_family(args)
    res = qfi_mod.qfi_family(fam, args.lam)
    _emit(args, {
        "family": fam.label,
        "lambda": args.lam,
        "value": res.value,
        "branch": res.branch,
    })
    return 0


def cmd_certify(args):
    ch = _get_channel(args)
    budget = args.at_eps if args.at_eps is not None else args.eps
    if budget is None:
        raise QldpError("provide --eps or --at-eps for the certification budget")
    cert = ldp.certify(ch, budget)
    _emit(args, cert.to_dict())
    return 0


def cmd_tighteps(args):
    ch = channels.AffineChannel.load(args.channel)
    _emit(args, {"tight_eps": ldp.tight_epsilon(ch)})
    return 0


def cmd_audit(args):
    ch = _get_channel(args)
    res = ldp.audit_by_sampling(ch, args.eps, args.n, args.seed)
    _emit(args, res.to_dict())
    return 0


def cmd_divergence(args):
    rho = _load_density(args.rho)
    sigma = _load_density(args.sigma)
    val = divergence.hockey_stick(rho, sigma, args.gamma)
    sys.stdout.write(f"{val:.17g}\n")
    return 0


def cmd_bounds(args):
    fam = _get_family(args)
    bias = args.bias or 0.0
    if args.corollary1 or args.thm2:
        which, calc = (("corollary1", bounds.bounds_cor1) if args.corollary1
                       else ("restricted-c0", bounds.bounds_thm2))
        lower, upper = calc(fam, args.lam, args.alpha, args.eps, bias=bias)
        _emit(args, {"N_lower_real": lower, "N_upper_real": upper,
                     "which": which})
        return 0
    report = bounds.bounds_thm1(fam, args.lam, args.alpha, args.eps, bias=bias)
    _emit(args, report.to_dict())
    return 0


def cmd_scaling(args):
    fam = _get_family(args)
    rows = []
    for eps in _parse_grid(args.eps_grid):
        rep = bounds.bounds_thm1(fam, args.lam, args.alpha, float(eps))
        rows.append([float(eps), rep.N_lower_real, rep.N_upper_real,
                     rep.fisher_cap])
    _emit_csv(args, ["eps", "N_lower", "N_upper", "fisher_cap"], rows)
    return 0


def cmd_simulate(args):
    fam = _get_family(args)
    eps = args.eps
    if args.channel:
        ch = channels.AffineChannel.load(args.channel)
    else:
        ch = channels.depolarizing(fam.d, eps)
    if args.n is not None:
        n_copies = args.n
    else:
        n_copies = bounds.bounds_thm1(fam, args.lam0, args.alpha, eps).N_upper
    stats = estimation.simulate(fam, args.lam0, ch, n_copies, args.trials,
                                args.seed)
    if args.out_format == "csv":
        d = stats.to_dict()
        _emit_csv(args, list(d.keys()), [list(d.values())])
    else:
        _emit(args, stats.to_dict())
    return 0


def cmd_optimize(args):
    fam = _get_family(args)
    res = opt_mod.maximize_qfi(fam, args.lam, args.eps, starts=args.starts,
                               seed=args.seed, c_zero=args.c_zero)
    _emit(args, res.to_dict())
    return 0


def cmd_optimize_sweep(args):
    fam = _get_family(args)
    grid = _parse_grid(args.eps_grid)
    results = opt_mod.sweep(fam, args.lam, grid, starts=args.starts,
                            seed=args.seed, c_zero=args.c_zero)
    rows = [[r.eps, r.best_qfi, r.fisher_cap, r.cap_ratio,
             r.feasibility_margin] for r in results]
    _emit_csv(args, ["eps", "best_qfi", "fisher_cap", "cap_ratio", "margin"],
              rows)
    return 0


def cmd_report(args):
    fam = _get_family(args)
    grid = _parse_grid(args.eps_grid)
    # refuse the counts before any file of the bundle is written
    check_count("trials", args.trials, 1, estimation.MAX_TRIALS)
    check_count("starts", args.starts, 0, opt_mod.MAX_STARTS)
    outdir = args.out_dir
    os.makedirs(outdir, exist_ok=True)

    def to(name, **extra):
        return argparse.Namespace(**vars(args), **extra,
                                  out=os.path.join(outdir, name))

    cmd_scaling(to("bounds.csv"))
    cmd_optimize_sweep(to("optimizer.csv", c_zero=False))

    certs = []
    for eps in grid:
        cert = ldp.certify(channels.depolarizing(2, float(eps)), float(eps))
        certs.append([float(eps), cert.sup_value, cert.margin,
                      int(cert.verdict)])
    _emit_csv(to("certification.csv"), ["eps", "sup_value", "margin", "verdict"],
              certs)

    mid_eps = float(grid[len(grid) // 2])
    sim = estimation.validate_upper_bound(fam, args.lam, args.alpha, mid_eps,
                                          args.trials, args.seed)
    _emit(to("simulation.json"), sim)

    manifest = {
        "schema": SCHEMA,
        "family": fam.label,
        "lambda": args.lam,
        "alpha": args.alpha,
        "eps_grid": args.eps_grid,
        "seed": args.seed,
        "starts": args.starts,
        "trials": args.trials,
        "files": ["bounds.csv", "optimizer.csv", "certification.csv",
                  "simulation.json"],
    }
    _write(os.path.join(outdir, "manifest.json"), _json(manifest))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    # no abbreviated --config: `main` spots the option by its full name
    parser = argparse.ArgumentParser(
        prog="qldp", allow_abbrev=False,
        description="Privacy-constrained quantum parameter estimation toolkit",
    )
    parser.add_argument("--config", help="JSON config file; flags take precedence")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("qfi", help="quantum Fisher information of a family")
    p.add_argument("--family", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_qfi)

    p = sub.add_parser("certify", help="exact qubit LDP certificate")
    p.add_argument("--channel")
    p.add_argument("--depolarizing", action="store_true")
    p.add_argument("--eps", type=float)
    p.add_argument("--at-eps", dest="at_eps", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("tighteps", help="smallest certifying budget")
    p.add_argument("--channel", required=True)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_tighteps)

    p = sub.add_parser("audit", help="hockey-stick sampling audit")
    p.add_argument("--channel")
    p.add_argument("--depolarizing", action="store_true")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--dim", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("divergence", help="hockey-stick divergence of two states")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("bounds", help="sample-complexity bounds")
    p.add_argument("--family", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--bias", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--corollary1", action="store_true")
    p.add_argument("--thm2", action="store_true")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("scaling", help="bounds over a budget grid (CSV)")
    p.add_argument("--family", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps-grid", dest="eps_grid", required=True)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("simulate", help="Monte Carlo CRB validation")
    p.add_argument("--family", required=True)
    p.add_argument("--lambda0", dest="lam0", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--channel")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--out-format", choices=["json", "csv"], default="json",
                   dest="out_format")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="search for the highest-QFI channel")
    p.add_argument("--family", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--starts", type=int, default=32)
    p.add_argument("--c-zero", dest="c_zero", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("optimize-sweep", help="channel search over a budget grid")
    p.add_argument("--family", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--eps-grid", dest="eps_grid", required=True)
    p.add_argument("--starts", type=int, default=32)
    p.add_argument("--c-zero", dest="c_zero", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_optimize_sweep)

    p = sub.add_parser("report", help="one-shot reproduction bundle")
    p.add_argument("--family", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.6)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--eps-grid", dest="eps_grid", default="0.01:0.5:20")
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_report)

    return parser


def _apply_config_file(parser, argv):
    """Make the --config file's values the defaults of the chosen
    subcommand, before the parse, so that the file can also supply a
    required option; flags on the command line still win."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False,
                                  exit_on_error=False)
    pre.add_argument("--config")
    pre.add_argument("subcommand", nargs="?")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    try:
        known, _ = pre.parse_known_args(argv)
    except argparse.ArgumentError:
        return  # the parse reports the bad command line
    subparser = sub.choices.get(known.subcommand)
    if not known.config or subparser is None:
        return  # an empty --config= is ignored, as without the option
    with open(known.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise QldpError(f"{known.config}: config must be a JSON object")
    # defaults set on the top-level parser never reach a subparser, so the
    # keys the chosen subcommand knows go to that subcommand's parser
    actions = {a.dest: a for a in subparser._actions
               if a.default != argparse.SUPPRESS}
    defaults = {}
    for key, value in cfg.items():
        action = actions.get(key.replace("-", "_"))
        if action is not None:
            defaults[action.dest] = _config_value(action, value)
            action.required = False
    subparser.set_defaults(**defaults)


def _config_value(action, value):
    """A config value, checked as the option's own parser would take it: a
    boolean for a flag, a string for a string option, a JSON number for a
    numeric option and an integral one for an int option."""
    if action.nargs == 0:
        ok = isinstance(value, bool)
    elif action.type is None:
        ok = isinstance(value, str) and value in (action.choices or [value])
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (action.type is float or isinstance(value, int)
                   or value.is_integer()))
    if not ok:
        raise QldpError(f"config value {value!r} does not fit {action.dest}")
    return int(value) if action.type is int else value


def _check_options(args):
    """Every numeric option is finite and no integer one is negative: the
    artifacts echo the options as strict JSON, and seeds are unsigned."""
    for key, value in vars(args).items():
        if (isinstance(value, float) and not math.isfinite(value)
                or isinstance(value, int) and value < 0):
            raise InvalidInputError(f"bad value for {key}: {value}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        if any(a == "--config" or a.startswith("--config=") for a in argv):
            _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        _check_options(args)
        return args.func(args)
    except OutOfRegimeError as exc:
        sys.stderr.write(f"out of regime: {exc}\n")
        return 2
    except (QldpError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
