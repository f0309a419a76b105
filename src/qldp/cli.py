"""Command-line entry point.

Exit codes: 0 success, 2 mathematically out of regime (e.g. the small-budget
bounds with eps >= 1) or an argparse usage error (a missing option, both
options of an either-or pair), 3 malformed input. A command returns its
artifact and `main` writes it, to --out or stdout; `report` writes its
bundle only once every part is computed. So a non-zero exit writes
nothing, to stdout or to any file. Every JSON artifact embeds the run
configuration and the schema tag "qldp/1" and is strict JSON: floats are
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
from .exceptions import InvalidInputError, OutOfRegimeError, QldpError

SCHEMA = "qldp/1"
# a grid and its CSV rows take under 1 MB at the bound, at any dimension
# (MAX_DIM included); each point costs one bound or one channel search
MAX_GRID_POINTS = 1000


def _json(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _artifact(args, payload):
    return _json({"schema": SCHEMA, "config": _config_echo(args),
                  "result": payload})


def _csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


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
    if args.channel:
        return channels.AffineChannel.load(args.channel)
    if not args.depolarizing:
        raise QldpError("provide --channel <path> or --depolarizing")
    if args.eps is None:
        raise InvalidInputError("--depolarizing needs --eps")
    return channels.depolarizing(args.dim if args.dim is not None else 2,
                                 args.eps)


# ---------------------------------------------------------------------------
# subcommands


def cmd_qfi(args):
    fam = _get_family(args)
    res = qfi_mod.qfi_family(fam, args.lam)
    return _artifact(args, {
        "family": fam.label,
        "lambda": args.lam,
        "value": res.value,
        "branch": res.branch,
    })


def cmd_certify(args):
    ch = _get_channel(args)
    budget = args.at_eps if args.at_eps is not None else args.eps
    if budget is None:
        raise QldpError("provide --eps or --at-eps for the certification budget")
    return _artifact(args, ldp.certify(ch, budget).to_dict())


def cmd_tighteps(args):
    ch = channels.AffineChannel.load(args.channel)
    return _artifact(args, {"tight_eps": ldp.tight_epsilon(ch)})


def cmd_audit(args):
    ch = _get_channel(args)
    res = ldp.audit_by_sampling(ch, args.eps, args.n, args.seed)
    return _artifact(args, res.to_dict())


def cmd_divergence(args):
    rho = _load_density(args.rho)
    sigma = _load_density(args.sigma)
    return f"{divergence.hockey_stick(rho, sigma, args.gamma):.17g}\n"


def cmd_bounds(args):
    fam = _get_family(args)
    bias = args.bias or 0.0
    if args.corollary1 or args.thm2:
        which, calc = (("corollary1", bounds.bounds_cor1) if args.corollary1
                       else ("restricted-c0", bounds.bounds_thm2))
        lower, upper = calc(fam, args.lam, args.alpha, args.eps, bias=bias)
        return _artifact(args, {"N_lower_real": lower, "N_upper_real": upper,
                                "which": which})
    report = bounds.bounds_thm1(fam, args.lam, args.alpha, args.eps, bias=bias)
    return _artifact(args, report.to_dict())


def cmd_scaling(args):
    fam = _get_family(args)
    rows = []
    for eps in _parse_grid(args.eps_grid):
        rep = bounds.bounds_thm1(fam, args.lam, args.alpha, float(eps))
        rows.append([float(eps), rep.N_lower_real, rep.N_upper_real,
                     rep.fisher_cap])
    return _csv(["eps", "N_lower", "N_upper", "fisher_cap"], rows)


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
    d = stats.to_dict()
    if args.out_format == "csv":
        return _csv(list(d.keys()), [list(d.values())])
    return _artifact(args, d)


def cmd_optimize(args):
    fam = _get_family(args)
    res = opt_mod.maximize_qfi(fam, args.lam, args.eps, starts=args.starts,
                               seed=args.seed, c_zero=args.c_zero)
    return _artifact(args, res.to_dict())


def cmd_optimize_sweep(args):
    fam = _get_family(args)
    grid = _parse_grid(args.eps_grid)
    results = opt_mod.sweep(fam, args.lam, grid, starts=args.starts,
                            seed=args.seed, c_zero=args.c_zero)
    rows = [[r.eps, r.best_qfi, r.fisher_cap, r.cap_ratio,
             r.feasibility_margin] for r in results]
    return _csv(["eps", "best_qfi", "fisher_cap", "cap_ratio", "margin"], rows)


def cmd_report(args):
    """Compute every part of the bundle, then write it to --out-dir: a
    refused request leaves no file. Nothing goes to stdout."""
    fam = _get_family(args)
    grid = _parse_grid(args.eps_grid)
    bounds_csv = cmd_scaling(args)
    # ahead of the sweep, the slowest part, to refuse a bad --trials sooner
    mid_eps = float(grid[len(grid) // 2])
    sim = estimation.validate_upper_bound(fam, args.lam, args.alpha, mid_eps,
                                          args.trials, args.seed)
    sweep = cmd_optimize_sweep(argparse.Namespace(**vars(args), c_zero=False))
    certs = []
    for eps in grid:
        cert = ldp.certify(channels.depolarizing(2, float(eps)), float(eps))
        certs.append([float(eps), cert.sup_value, cert.margin,
                      int(cert.verdict)])
    files = {
        "bounds.csv": bounds_csv,
        "optimizer.csv": sweep,
        "certification.csv": _csv(["eps", "sup_value", "margin", "verdict"],
                                  certs),
        "simulation.json": _artifact(args, sim),
    }
    files["manifest.json"] = _json({
        "schema": SCHEMA,
        "family": fam.label,
        "lambda": args.lam,
        "alpha": args.alpha,
        "eps_grid": args.eps_grid,
        "seed": args.seed,
        "starts": args.starts,
        "trials": args.trials,
        "files": list(files),
    })
    os.makedirs(args.out_dir, exist_ok=True)
    for name, text in files.items():
        _write(os.path.join(args.out_dir, name), text)
    return ""


# ---------------------------------------------------------------------------
# parser


def build_parser():
    """The qldp parser and its subcommand parsers by name.

    Each option that several subcommands take is declared once, in a
    parent parser. The parents are built on every call: a child shares its
    parent's action objects, and `_apply_config_file` changes them."""
    # no abbreviated --config: `main` spots the option by its full name
    parser = argparse.ArgumentParser(
        prog="qldp", allow_abbrev=False,
        description="Privacy-constrained quantum parameter estimation toolkit",
    )
    parser.add_argument("--config", help="JSON config file; flags take precedence")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    family, lam, dim, seed, out, source = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    family.add_argument("--family", required=True)
    lam.add_argument("--lambda", dest="lam", type=float, required=True)
    dim.add_argument("--dim", type=int)
    seed.add_argument("--seed", type=int, default=0)
    out.add_argument("--out", help="output path (default: stdout)")
    either = source.add_mutually_exclusive_group()
    either.add_argument("--channel")
    either.add_argument("--depolarizing", action="store_true")

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    command("qfi", cmd_qfi, "quantum Fisher information of a family",
            family, lam, dim, out)

    p = command("certify", cmd_certify, "exact qubit LDP certificate",
                source, dim, out)
    p.add_argument("--eps", type=float)
    p.add_argument("--at-eps", dest="at_eps", type=float)

    p = command("tighteps", cmd_tighteps, "smallest certifying budget", out)
    p.add_argument("--channel", required=True)

    p = command("audit", cmd_audit, "hockey-stick sampling audit",
                source, dim, seed, out)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, default=1000)

    p = command("divergence", cmd_divergence,
                "hockey-stick divergence of two states")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)

    p = command("bounds", cmd_bounds, "sample-complexity bounds",
                family, lam, dim, out)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--bias", type=float)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--corollary1", action="store_true")
    which.add_argument("--thm2", action="store_true")

    p = command("scaling", cmd_scaling, "bounds over a budget grid (CSV)",
                family, lam, out)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps-grid", dest="eps_grid", required=True)

    p = command("simulate", cmd_simulate, "Monte Carlo CRB validation",
                family, seed, out)
    p.add_argument("--lambda0", dest="lam0", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--channel")
    p.add_argument("--n", type=int)
    p.add_argument("--out-format", choices=["json", "csv"], default="json",
                   dest="out_format")

    p = command("optimize", cmd_optimize, "search for the highest-QFI channel",
                family, lam, seed, out)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--starts", type=int, default=32)
    p.add_argument("--c-zero", dest="c_zero", action="store_true")

    p = command("optimize-sweep", cmd_optimize_sweep,
                "channel search over a budget grid", family, lam, seed, out)
    p.add_argument("--eps-grid", dest="eps_grid", required=True)
    p.add_argument("--starts", type=int, default=32)
    p.add_argument("--c-zero", dest="c_zero", action="store_true")

    p = command("report", cmd_report, "one-shot reproduction bundle",
                family, seed)
    p.add_argument("--lambda", dest="lam", type=float, default=0.6)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--eps-grid", dest="eps_grid", default="0.01:0.5:20")
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--out-dir", dest="out_dir", required=True)

    return parser, sub.choices


def _apply_config_file(subparsers, argv):
    """Make the --config file's values the defaults of the chosen
    subcommand, before the parse, so that the file can also supply a
    required option; flags on the command line still win."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False,
                                  exit_on_error=False)
    pre.add_argument("--config")
    pre.add_argument("subcommand", nargs="?")
    try:
        known, _ = pre.parse_known_args(argv)
    except argparse.ArgumentError:
        return  # the parse reports the bad command line
    subparser = subparsers.get(known.subcommand)
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
    # the parse sees a file's value as a default, never as a conflict: a
    # flag drops the file's values for its whole either-or group
    flags = {t.split("=", 1)[0] for t in argv if t.startswith("--")} - {"--"}
    for group in subparser._mutually_exclusive_groups:
        names = [s for a in group._group_actions for s in a.option_strings]
        if any(s.startswith(f) for s in names for f in flags):
            for a in group._group_actions:
                defaults.pop(a.dest, None)
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
    parser, subparsers = build_parser()
    try:
        if any(a == "--config" or a.startswith("--config=") for a in argv):
            _apply_config_file(subparsers, argv)
        args = parser.parse_args(argv)
        _check_options(args)
        # the one writer of a command's artifact: its --out file or stdout
        _write(getattr(args, "out", None), args.func(args))
        return 0
    except OutOfRegimeError as exc:
        sys.stderr.write(f"out of regime: {exc}\n")
        return 2
    except (QldpError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
