"""Command line interface.

Exit codes: 0 on success, 1 for anything wrong with the input (bad
usage, malformed files, parameter domain errors, attenuation and
estimation failures), 2 when an internal invariant breaks, which is a
bug in the package rather than a problem with the input.

The master seed resolves in three steps: an explicit --seed wins, then
the SPARSEPACK_SEED environment variable, then 0.  All randomness flows
through counter-derived streams, so a fixed seed yields byte-identical
reports regardless of --jobs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import (InternalInvariantError, ParamError, SparsepackError,
                     ValidationError)
from .harness import (ALGORITHMS, SCHEMES, ExperimentSpec, brute_force_opt,
                      empirical_ratio, format_report, gen_gap_instance,
                      gen_random_hypergraph, gen_random_kcs, gen_random_tree,
                      gen_sksp_instance, write_report_csv)
from .hypermatch import hypergraph_to_dict
from .kcspip import (KcsParams, exact_inclusion_probabilities,
                     exact_pairwise_probabilities, instance_k)
from .lp import solve_packing_lp
from .sksp import compute_schedule, sksp_to_dict
from .ufptree import optimize_alpha, tree_to_dict
from .core import instance_to_dict, load_instance, write_json


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here exit 2 is reserved for
    internal assertion failures, so usage errors print help and exit 1."""

    def error(self, message):
        self.print_help(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_seed(value):
    if value is not None:
        return value
    raw = os.environ.get("SPARSEPACK_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ParamError(f"SPARSEPACK_SEED={raw!r} is not an integer") from None


def _emit(obj, path):
    if path is None:
        sys.stdout.write(json.dumps(obj, indent=1) + "\n")
    else:
        write_json(obj, path)


def _load_input(loader, path):
    """Turn decode and shape failures into input errors naming the file."""
    try:
        return loader(path)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"{path} does not hold the expected instance shape: {exc!r}"
        ) from None


def _load_x(path, n):
    with open(path) as fh:
        try:
            x = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParamError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(x, list) or len(x) != n:
        raise ParamError(f"{path} must hold a JSON array of {n} numbers")
    try:
        return [float(v) for v in x]
    except (TypeError, ValueError):
        raise ParamError(f"{path} must hold a JSON array of {n} numbers") from None


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_gen(args):
    seed = _resolve_seed(args.seed)
    if args.family == "gap":
        obj = instance_to_dict(gen_gap_instance(args.k, eps=args.eps))
    elif args.family == "kcs":
        obj = instance_to_dict(gen_random_kcs(args.n, args.m, args.k, seed))
    elif args.family == "hyper":
        obj = hypergraph_to_dict(
            gen_random_hypergraph(args.vertices, args.edges, args.k, seed)
        )
    elif args.family == "sksp":
        obj = sksp_to_dict(
            gen_sksp_instance(args.n, args.m, args.k, args.scenarios, seed,
                              cap_hi=args.cap_hi)
        )
    else:
        obj = tree_to_dict(
            gen_random_tree(args.vertices, args.demands, seed, cap_hi=args.cap_hi)
        )
    _emit(obj, args.output)


def _cmd_solve_lp(args):
    inst = _load_input(load_instance, args.instance)
    sol = solve_packing_lp(inst, strengthen=not args.no_strengthen)
    _emit({"objective": sol.objective, "x": list(sol.x)}, args.output)


def _cmd_round(args):
    scheme = SCHEMES[args.algorithm]
    instance = _load_input(scheme.load, args.instance)
    flags = {
        "alpha": args.alpha, "ell": args.ell, "d": args.d,
        "epsilon": args.epsilon, "T": args.chances,
        "sim_budget": args.sim_budget,
        "attenuate_last": not args.no_attenuate_last,
    }
    spec = ExperimentSpec(
        algorithm=args.algorithm,
        instance=instance,
        trials=args.trials,
        seed=_resolve_seed(args.seed),
        jobs=args.jobs,
        params={key: v for key, v in flags.items() if v is not None},
        sink=args.json,
    )
    x = None
    if args.x is not None:
        x = _load_x(args.x, scheme.packing(instance).n)
    report = empirical_ratio(spec, x=x)
    sys.stdout.write(format_report(report))
    if args.csv is not None:
        write_report_csv(report, args.csv)
    if report.feasibility_violations > 0:
        raise InternalInvariantError(
            f"{report.feasibility_violations} feasibility violations across "
            f"{report.trials} trials; every scheme must be feasible on every run"
        )


def _cmd_oracle(args):
    inst = _load_input(load_instance, args.instance)
    if args.kind == "opt":
        value, chosen = brute_force_opt(inst)
        _emit({"value": value, "items": sorted(chosen)}, args.output)
        return
    params = KcsParams.defaults(instance_k(inst), epsilon=args.epsilon)
    if args.x is not None:
        x = _load_x(args.x, inst.n)
    else:
        x = list(solve_packing_lp(inst, strengthen=True).x)
    out = {
        "params": {
            "alpha": params.alpha,
            "ell": params.ell,
            "d": params.d,
            "palette": params.palette_size(),
        },
        "marginals": [float(v) for v in exact_inclusion_probabilities(inst, x, params)],
    }
    if args.pairwise:
        joint = exact_pairwise_probabilities(inst, x, params)
        out["pairwise"] = [[float(v) for v in row] for row in joint]
    _emit(out, args.output)


def _cmd_schedule(args):
    k = args.k if args.k is not None else math.inf
    sched = compute_schedule(args.chances, k)
    _emit({
        "alphas": list(sched.alphas),
        "betas": list(sched.betas),
        "gamma": sum(sched.betas),
    }, args.output)


def _cmd_optimize_ufp(args):
    alpha, balance = optimize_alpha(grid_resolution=args.grid)
    _emit({"alpha": alpha, "balance": balance}, args.output)


# ---------------------------------------------------------------------------
# Parser assembly

def _add_seed(p):
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: SPARSEPACK_SEED or 0)")


def _add_output(p):
    p.add_argument("-o", "--output", default=None,
                   help="write JSON here instead of stdout")


def build_parser():
    parser = _Parser(prog="sparsepack",
                     description="column-sparse packing roundings at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    fam = p.add_subparsers(dest="family", required=True)

    g = fam.add_parser("gap", help="tight family with n = 2k - 1")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--eps", type=float, default=None)
    _add_seed(g)
    _add_output(g)
    g.set_defaults(func=_cmd_gen)

    g = fam.add_parser("kcs", help="random column-sparse instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    _add_seed(g)
    _add_output(g)
    g.set_defaults(func=_cmd_gen)

    g = fam.add_parser("hyper", help="random weighted hypergraph")
    g.add_argument("--vertices", type=int, required=True)
    g.add_argument("--edges", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    _add_seed(g)
    _add_output(g)
    g.set_defaults(func=_cmd_gen)

    g = fam.add_parser("sksp", help="random stochastic packing instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--scenarios", type=int, default=3)
    g.add_argument("--cap-hi", type=int, default=2)
    _add_seed(g)
    _add_output(g)
    g.set_defaults(func=_cmd_gen)

    g = fam.add_parser("tree", help="random capacitated tree with demands")
    g.add_argument("--vertices", type=int, required=True)
    g.add_argument("--demands", type=int, required=True)
    g.add_argument("--cap-hi", type=int, default=2)
    _add_seed(g)
    _add_output(g)
    g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve-lp", help="solve the packing relaxation")
    p.add_argument("instance")
    p.add_argument("--no-strengthen", action="store_true",
                   help="drop the unit-bound rows for items with big entries")
    _add_output(p)
    p.set_defaults(func=_cmd_solve_lp)

    p = sub.add_parser("round", help="run rounding trials and report ratios")
    p.add_argument("algorithm", choices=ALGORITHMS)
    p.add_argument("--instance", required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--x", default=None,
                   help="JSON array to round instead of the LP solution")
    p.add_argument("--epsilon", type=float, default=None,
                   help="enable the spread palette (kcspip)")
    p.add_argument("--alpha", type=float, default=None,
                   help="sampling rate scale (kcspip, bkns, ufp)")
    p.add_argument("--ell", type=int, default=None,
                   help="medium/tiny threshold override (kcspip)")
    p.add_argument("--d", type=int, default=None,
                   help="anomaly threshold override (kcspip)")
    p.add_argument("--chances", type=int, default=None, help="passes (sksp)")
    p.add_argument("--sim-budget", type=int, default=None,
                   help="attenuation pool size (sksp, ufp)")
    p.add_argument("--no-attenuate-last", action="store_true",
                   help="leave the final chance unattenuated (sksp)")
    p.add_argument("--json", default=None, help="write the full report here")
    p.add_argument("--csv", default=None, help="write the per-item table here")
    _add_seed(p)
    p.set_defaults(func=_cmd_round)

    p = sub.add_parser("oracle", help="exact answers on small instances")
    kind = p.add_subparsers(dest="kind", required=True)

    g = kind.add_parser("opt", help="exact packing optimum")
    g.add_argument("instance")
    _add_output(g)
    g.set_defaults(func=_cmd_oracle)

    g = kind.add_parser("inclusion", help="exact per-item inclusion probabilities")
    g.add_argument("instance")
    g.add_argument("--x", default=None)
    g.add_argument("--epsilon", type=float, default=None)
    g.add_argument("--pairwise", action="store_true")
    _add_output(g)
    g.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("schedule", help="multi-chance rate schedule")
    p.add_argument("--chances", "-T", type=int, required=True)
    p.add_argument("--k", type=float, default=None,
                   help="column sparsity (default: no finite-k correction)")
    _add_output(p)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("optimize-ufp", help="balance-optimal sampling rate")
    p.add_argument("--grid", type=float, default=1e-6)
    _add_output(p)
    p.set_defaults(func=_cmd_optimize_ufp)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except SparsepackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
