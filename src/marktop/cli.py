"""Command line interface: node/bound queries, scalar error scans, matrix
function experiments and random SPD Toeplitz generation.

Exit codes: 0 success, 2 configuration error, 3 oracle or runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments as ex
from .approx import apriori_bound, blaschke_eta, build_geometry, optimal_nodes
from .errors import BoundInvalid, MarktopError
from .markov import inv_sqrt_spec, log_spec, power_spec
from .tlalgebra import read_toeplitz, write_toeplitz

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _make_spec(args):
    if args.spec == "inv_sqrt":
        return inv_sqrt_spec()
    if args.spec == "log":
        return log_spec()
    if args.gamma is None:
        raise MarktopError("--gamma required for spec 'power'")
    return power_spec(args.gamma)


def cmd_nodes(args) -> int:
    g = build_geometry(args.alpha, args.beta, args.c, args.d)
    nodes = optimal_nodes(g, args.m)
    eta = blaschke_eta(g, nodes)
    try:
        apriori = f"{apriori_bound(g, args.m):.6e}"
    except BoundInvalid:
        apriori = "invalid"
    print(f"geometry: k={g.k:.6g} kappa={g.kappa:.6g} lambda={g.lam:.6g} "
          f"rho={g.rho:.6g}")
    print("nodes:", " ".join(f"{z:.12g}" for z in nodes))
    print(f"eta = {eta:.6e}")
    print(f"lambda^(2m) = {g.lam ** (2 * args.m):.6e}")
    print(f"2 rho^(2m) = {2.0 * g.rho ** (2 * args.m):.6e}")
    print(f"apriori = {apriori}")
    return EXIT_OK


def cmd_scan(args) -> int:
    spec = _make_spec(args)
    reps = args.reps.split(",")
    rows = ex.scalar_scan(spec, args.c, args.d,
                          range(args.m_min, args.m_max + 1), reps)
    ex.write_rows(args.output, rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


def _load_matrix(args):
    if args.matrix == "file":
        if args.path is None:
            raise MarktopError("--path required for --matrix=file")
        return read_toeplitz(args.path)
    if args.matrix == "random":
        return ex.gen_random_spd_toeplitz(args.n, args.lmin, args.lmax, args.seed)
    return ex.laplacian1d(args.n)


def cmd_matfun(args) -> int:
    spec = _make_spec(args)
    rows = ex.run_experiment(spec, _load_matrix(args), args.case,
                             tuple(args.reps.split(",")), args.m_max, not args.no_oracle)
    ex.write_rows(args.output, rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


def cmd_gen(args) -> int:
    a = ex.gen_random_spd_toeplitz(args.n, args.lmin, args.lmax, args.seed)
    write_toeplitz(args.output, a)
    print(f"wrote {args.n} x {args.n} Toeplitz to {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marktop",
        description="Markov functions of SPD Toeplitz matrices via rational "
                    "interpolation with a priori error bounds and a residual "
                    "stopping rule (a Lanczos estimate on Toeplitz-like arguments).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nodes", help="print optimal nodes and bounds")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_nodes)

    p = sub.add_parser("scan", help="scalar error scan on cosine points")
    p.add_argument("--spec", default="inv_sqrt",
                   choices=["inv_sqrt", "log", "power"])
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--m-min", type=int, default=1)
    p.add_argument("--m-max", type=int, default=15)
    p.add_argument("--reps", default="pfd,barycentric,thiele")
    p.add_argument("--output", default="scan.csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("matfun", help="matrix function experiment")
    p.add_argument("--spec", default="log",
                   choices=["inv_sqrt", "log", "power"])
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--matrix", default="random",
                   choices=["file", "random", "laplacian1d"])
    p.add_argument("--path", default=None)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--lmin", type=float, default=25.0)
    p.add_argument("--lmax", type=float, default=139.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--case", default="i", choices=["i", "ii", "iii", "iv"])
    p.add_argument("--reps", default="pfd,barycentric,thiele")
    p.add_argument("--m-max", type=int, default=20)
    p.add_argument("--no-oracle", action="store_true")
    p.add_argument("--output", default="matfun.csv")
    p.set_defaults(func=cmd_matfun)

    p = sub.add_parser("gen", help="generate a random SPD Toeplitz file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lmin", type=float, required=True)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MarktopError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
