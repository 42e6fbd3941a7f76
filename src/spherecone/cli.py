"""Command-line interface: point generation, discrepancy evaluation,
the sphere trial integral, stratified-scaling studies and option-pricing
tables.  It parses arguments and prints; the library does the work.

Exit codes: 0 on success, 2 on configuration/usage errors and stream
exhaustion, 3 on numeric failures.  CSV output uses 17 significant
digits so that written point sets round-trip losslessly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

import numpy as np

from . import finance, lds, spheremap, wce
from .errors import (DomainError, ConfigurationError, ExhaustionError,
                     NumericError)

_FMT = "%.17g"


def _emit_csv(header, rows, path):
    """Write header and rows as CSV lines ending in \\r\\n.  Cells are
    written as they are, unquoted: the CLI's text cells (generator, kind
    and construction names) hold no comma, quote or line break.  Floats
    take 17 significant digits and every other cell str(); the rows of
    each table share their cell types, so the first row's set the format
    of all."""
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        out.write(",".join(header) + "\r\n")
        if rows:
            fmt = ",".join(_FMT if isinstance(cell, float) else "%s"
                           for cell in rows[0]) + "\r\n"
            out.writelines(fmt % tuple(row) for row in rows)
    finally:
        if path:
            out.close()


def _direction_table(args):
    if getattr(args, "dirfile", None):
        return lds.DirectionNumberTable.from_file(args.dirfile)
    # SobolStream falls back to DirectionNumberTable.default(), which
    # reads SPHERECONE_DIRFILE before the embedded table
    return None


def _int_list(text):
    return [int(v) for v in text.split(",") if v]


def _kernel_params(args, d):
    return wce.KernelParams(mu=args.mu, A=args.A, B=args.B, d=d)


def _cube(args):
    return lds._cube_points(args.n, args.dim, args.seed,
                            args.gen == "random", args.scramble,
                            _direction_table(args))


def cmd_points(args):
    if args.gen == "sobol" and args.polar:
        raise ConfigurationError(
            "--polar needs lifted points; --gen sobol writes cube points")
    cube = _cube(args)
    header = [f"x{i+1}" for i in range(args.dim)]
    if args.gen == "sobol":
        rows = cube
    elif args.polar:
        pts = spheremap.lift_to_space(cube)
        header = ["radius"] + [f"y{i+1}" for i in range(args.dim)]
        rows = np.column_stack([pts.radii, pts.directions])
    else:
        rows = spheremap.lift_to_space(cube).cartesian
    _emit_csv(header, rows.tolist(), args.output)
    return 0


def cmd_sphere_map(args):
    pts = spheremap.map_to_sphere(_cube(args))
    _emit_csv([f"y{i+1}" for i in range(args.dim + 1)], pts.tolist(),
              args.output)
    return 0


def _read_points(path):
    """Read a point CSV (cartesian `x1..` or polar `radius,y1..`)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        with warnings.catch_warnings():
            # loadtxt warns on a file without data rows; rejected below
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.size == 0:
        raise ConfigurationError(f"{path}: no points")
    if rows.shape[1] != len(header):
        raise ConfigurationError(
            f"{path}: rows of {rows.shape[1]} values under a header of "
            f"{len(header)} columns")
    if header[0] == "radius":
        return spheremap.SpacePoints(rows[:, 1:], rows[:, 0])
    return spheremap.SpacePoints.from_cartesian(rows)


def cmd_wce(args):
    pts = _read_points(args.input)
    p = _kernel_params(args, pts.directions.shape[1] - 1)
    report = wce.wce_nakagami(p, pts)
    json.dump(dataclasses.asdict(report), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_rms_wce(args):
    if args.N < 0:
        raise ConfigurationError(f"--N must be >= 0, got {args.N}")
    p = _kernel_params(args, args.d)
    out = {"iid_constant": wce.rms_wce_iid(p)}
    if args.N:
        out["iid_expected_wce_sq"] = out["iid_constant"] / args.N
    if args.input:
        pts = _read_points(args.input)
        out["fixed_directions_expected_wce_sq"] = wce.rms_wce_fixed_directions(
            p, pts.directions)
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_trial_integral(args):
    table = _direction_table(args)
    n_list = _int_list(args.n_list)
    rows = []
    for gen in args.gen.split(","):
        errs = spheremap.trial_integral_errors(args.dim, n_list, gen,
                                               args.seed, table)
        rows.extend([gen, n, e] for n, e in zip(n_list, errs))
    _emit_csv(["generator", "N", "abs_error"], rows, args.output)
    return 0


def cmd_strata(args):
    p = _kernel_params(args, 2)
    rows, slope = wce.strata_scaling(p, _int_list(args.M_list), args.seed,
                                     args.draws)
    header = list(rows[0].keys())
    _emit_csv(header, [[float(r[k]) for k in header] for r in rows],
              args.output)
    if slope is not None:
        print(f"# log-log slope of formula vs N: {slope:.6f}",
              file=sys.stderr)
    return 0


def cmd_lambda(args):
    print(_FMT % wce.lambda_k(args.mu, args.c, args.K))
    return 0


def _option_spec(args):
    return finance.OptionSpec(
        S0=args.S0, K_strike=args.K, T=args.T, sigma=args.sigma, r=args.r,
        d_steps=args.steps, kind=args.kind, barrier_b=args.barrier)


_GEN_ALIASES = {"mc": "mc", "sobol": "sobol_inverse_normal",
                "sphere": "sphere_normal"}


def cmd_price(args):
    spec = _option_spec(args)
    if args.reps < 1:
        raise ConfigurationError(f"--reps must be at least 1, got {args.reps}")
    if args.N % args.reps:
        raise ConfigurationError(
            f"N={args.N} not divisible by reps={args.reps}")
    est = finance.price_option(spec, args.construction,
                               _GEN_ALIASES[args.gen],
                               args.N // args.reps, args.reps, args.seed)
    _emit_csv(
        ["kind", "generator", "construction", "N", "reps", "mean",
         "std_dev_across_replicates", "std_error"],
        [[spec.kind, est.generator, est.construction, args.N, args.reps,
          est.mean, est.std_dev_across_replicates, est.std_error]],
        args.output)
    return 0


def cmd_table(args):
    spec = _option_spec(args)
    header, rows = finance.experiment_table(spec, _int_list(args.n_list),
                                            args.seed)
    _emit_csv(header, rows, args.output)
    return 0


def _add_common(sp, dirfile=False, seed_help=None):
    sp.add_argument("--seed", type=int, default=0, help=seed_help)
    sp.add_argument("--output", default=None)
    if dirfile:
        sp.add_argument("--dirfile", default=None,
                        help="direction-number file overriding the "
                        "embedded table (also settable via "
                        "SPHERECONE_DIRFILE)")


def _add_kernel(sp):
    for name in ("--mu", "--A", "--B"):
        sp.add_argument(name, type=float, required=True)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="spherecone",
        description="Normally distributed QMC point sets, spherical-cone "
        "discrepancies and option-pricing experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("points", help="generate points in R^dim")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--gen", default="sphere",
                    choices=["sphere", "sobol", "random"])
    sp.add_argument("--scramble", action="store_true")
    sp.add_argument("--polar", action="store_true",
                    help="emit radius,y1..yd instead of cartesian "
                    "(lifted points: not with --gen sobol)")
    _add_common(sp, dirfile=True)
    sp.set_defaults(func=cmd_points)

    sp = sub.add_parser("sphere-map", help="map cube points onto S^dim")
    sp.add_argument("--dim", type=int, required=True,
                    help="cube dimension; output lies on S^dim")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--gen", default="sobol", choices=["sobol", "random"])
    sp.add_argument("--scramble", action="store_true")
    _add_common(sp, dirfile=True)
    sp.set_defaults(func=cmd_sphere_map)

    sp = sub.add_parser("wce", help="worst-case error of a point CSV")
    sp.add_argument("--input", required=True)
    _add_kernel(sp)
    sp.set_defaults(func=cmd_wce)

    sp = sub.add_parser("rms-wce", help="expected squared wce laws")
    _add_kernel(sp)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--N", type=int, default=0)
    sp.add_argument("--input", default=None,
                    help="direction CSV for the fixed-directions law")
    sp.set_defaults(func=cmd_rms_wce)

    sp = sub.add_parser("trial-integral",
                        help="error of the sphere trial integral")
    sp.add_argument("--dim", type=int, default=16,
                    help="ambient dimension (sphere S^{dim-1})")
    sp.add_argument("--n-list", default="1024,4096,16384,65536,262144")
    sp.add_argument("--gen", default="inverse_beta",
                    help="comma list of inverse_beta,inverse_normal,random")
    _add_common(sp, dirfile=True)
    sp.set_defaults(func=cmd_trial_integral)

    sp = sub.add_parser("strata", allow_abbrev=False,  # --d is not --draws
                        help="stratified-sampling scaling study")
    _add_kernel(sp)
    sp.add_argument("--M-list", default="64,256,1024,4096")
    sp.add_argument("--draws", type=int, default=0,
                    help="empirical stratified draws per M (0 = formula "
                    "only); each draw scores M*K points with O((M*K)^2) "
                    "kernel pairs: the default --M-list reaches M = 4096, "
                    "K = 64, 262,144 points and about 3.4e10 pairs per draw")
    _add_common(sp, seed_help="seeds the --draws columns only; the formula "
                "is deterministic")
    sp.set_defaults(func=cmd_strata)

    sp = sub.add_parser("lambda", help="the shell mean Lambda_K")
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.set_defaults(func=cmd_lambda)

    for name in ("price", "table"):
        sp = sub.add_parser(name, help=f"option pricing ({name})")
        sp.add_argument("--kind", default="asian",
                        choices=["asian", "barrier", "digital"])
        sp.add_argument("--S0", type=float, default=100.0)
        sp.add_argument("--K", type=float, default=100.0)
        sp.add_argument("--T", type=float, default=1.0)
        sp.add_argument("--sigma", type=float, default=0.2)
        sp.add_argument("--r", type=float, default=0.05)
        sp.add_argument("--steps", type=int, default=30)
        sp.add_argument("--barrier", type=float, default=None)
        if name == "price":
            sp.add_argument("--N", type=int, required=True)
            sp.add_argument("--reps", type=int, default=128)
            sp.add_argument("--gen", default="sobol",
                            choices=list(_GEN_ALIASES))
            sp.add_argument("--construction", default="standard",
                            choices=["standard", "pca"])
            sp.set_defaults(func=cmd_price)
        else:
            sp.add_argument("--n-list", default="32768,65536")
            sp.set_defaults(func=cmd_table)
        _add_common(sp)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ConfigurationError, ExhaustionError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
