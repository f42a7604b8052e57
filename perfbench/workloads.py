"""The workloads: the instances each round uses and the commands it
runs on them.

A round is one pass over a workload's operations.  An operation is one
`sparsepack` command, `solve-lp` or `round <alg>`, on one instance.

Instances are fixed: each workload makes its instances once with the
program's own `gen` command at fixed seeds, and every round of every run
uses the same ones.  How long an LP solve or a trial takes differs from
one generated instance to the next by 15-80% (LP pivot counts most of
all), so instances drawn from --seed would make runs with different
seeds measure different work.  The run's
--seed instead feeds every random stream the program draws: the `round
--seed` of each operation, which seeds its trials and its set-up pools.
The one exception is the sksp operation of `pools` (see SKSP_OVERSHOOT).
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field


@dataclass
class Op:
    alg: str                  # "solve-lp" or the algorithm of a `round`
    family: str               # instance format: kcs, hyper, sksp, tree
    instance: str             # instance file
    output: str               # JSON file the command writes
    argv: list
    trials: int = 0
    params: dict = field(default_factory=dict)   # what the checks need
    solves_lp: bool = True    # output carries a relaxation the op solved
    x_file: str = None        # solve-lp: also write x here for `round --x`
    known_fault: str = None   # a program fault that fails this op's check


def stream_seed(seed, rnd, i):
    """The `round --seed` of operation i in round rnd of run `seed`."""
    return seed * 1_000_000 + rnd * 100 + i


class Builder:
    """Writes instance files with `sparsepack gen` into a work directory."""

    def __init__(self, cli, work):
        self.cli, self.work = cli, work

    def gen(self, family, seed, *flags):
        path = os.path.join(self.work, f"{family}-{seed}.json")
        if not os.path.exists(path):
            argv = ["gen", family, *flags, "--seed", str(seed), "-o", path]
            with contextlib.redirect_stdout(io.StringIO()):
                if self.cli.main(argv) != 0:
                    raise RuntimeError(f"sparsepack {' '.join(argv)} failed")
        return path

    def solve_lp(self, family, instance):
        stem = os.path.splitext(instance)[0]
        return Op("solve-lp", family, instance, stem + ".lp.json",
                  ["solve-lp", instance, "-o", stem + ".lp.json"],
                  x_file=stem + ".x.json")

    def round(self, alg, family, instance, trials, seed, *flags, **params):
        out = os.path.splitext(instance)[0] + f".{alg}.json"
        argv = ["round", alg, "--instance", instance, "--trials", str(trials),
                "--seed", str(seed), "--jobs", "1", "--json", out, *flags]
        return Op(alg, family, instance, out, argv, trials, params,
                  solves_lp="--x" not in flags)


# trials: the per-trial pipeline.  Each instance's strengthened LP is
# solved once and both roundings take it through --x, so the LP is a
# minority of the round and the trials dominate.
TRIALS_KCS = ("--n", "100", "--m", "50", "--k", "4")
TRIALS_KCS_SEEDS = (1, 2, 3)
TRIALS_PER_OP = 8192


def trials_round(b, seed, rnd):
    ops = []
    for i, gen_seed in enumerate(TRIALS_KCS_SEEDS):
        inst = b.gen("kcs", gen_seed, *TRIALS_KCS)
        lp = b.solve_lp("kcs", inst)
        ops.append(lp)
        for alg in ("kcspip", "bkns"):
            ops.append(b.round(alg, "kcs", inst, TRIALS_PER_OP,
                               stream_seed(seed, rnd, i), "--x", lp.x_file))
    return ops


# pools: the set-up simulation pools, then trials on the same runners.
# The sksp instance is the ROADMAP one (`gen sksp --n 10 --m 6 --k 3`),
# with a fixed pool: its default pool would run for minutes.
POOLS_SKSP = ("--n", "10", "--m", "6", "--k", "3")
POOLS_SKSP_SEED = 2
POOLS_SKSP_BUDGET = 100_000
POOLS_SKSP_CHANCES = 2
POOLS_SKSP_TRIALS = 40_960
POOLS_TREE = ("--vertices", "60", "--demands", "40")
POOLS_TREE_SEEDS = (1, 2, 3)
POOLS_UFP_ALPHA = 0.1
POOLS_UFP_BUDGET = 100_000
POOLS_UFP_TRIALS = 8192

# The pool estimates each add rate with the whole chance unattenuated,
# while live trials attenuate the other items of that chance too, so an
# item is safe more often than the pool saw and lands above its target
# (Gamma x_j / k).  On instance seed 2 with stream seed 2, item 0
# overshoots by more than the check's slack (seed 1 stays inside it).
# The operation's inputs, stream seed included, do not depend on --seed,
# so it fails the same way in every round of every run.
SKSP_OVERSHOOT = "sksp add rates overshoot the attenuation target"


def pools_round(b, seed, rnd):
    sk = b.gen("sksp", POOLS_SKSP_SEED, *POOLS_SKSP)
    sksp = b.round("sksp", "sksp", sk, POOLS_SKSP_TRIALS, POOLS_SKSP_SEED,
                   "--sim-budget", str(POOLS_SKSP_BUDGET),
                   "--chances", str(POOLS_SKSP_CHANCES),
                   sim_budget=POOLS_SKSP_BUDGET, chances=POOLS_SKSP_CHANCES)
    sksp.known_fault = SKSP_OVERSHOOT
    ops = [sksp]
    for i, gen_seed in enumerate(POOLS_TREE_SEEDS):
        tree = b.gen("tree", gen_seed, *POOLS_TREE)
        ops.append(b.round("ufp", "tree", tree, POOLS_UFP_TRIALS,
                           stream_seed(seed, rnd, i),
                           "--alpha", str(POOLS_UFP_ALPHA),
                           "--sim-budget", str(POOLS_UFP_BUDGET),
                           alpha=POOLS_UFP_ALPHA, sim_budget=POOLS_UFP_BUDGET))
    return ops


# lp: the dense simplex on two LP shapes.  The strengthened kcs LP has
# extra big-item rows; the hypergraph LP has 0/1 coefficients and many
# ratio ties under Bland's rule.
LP_KCS = ("--n", "150", "--m", "75", "--k", "4")
LP_KCS_SEEDS = (1, 2)
LP_HYPER = ("--vertices", "300", "--edges", "700", "--k", "3")
LP_HYPER_SEEDS = (1, 2)
LP_HM_TRIALS = 4096


def lp_round(b, seed, rnd):
    ops = [b.solve_lp("kcs", b.gen("kcs", gen_seed, *LP_KCS))
           for gen_seed in LP_KCS_SEEDS]
    for i, gen_seed in enumerate(LP_HYPER_SEEDS):
        ops.append(b.round("hm", "hyper", b.gen("hyper", gen_seed, *LP_HYPER),
                           LP_HM_TRIALS, stream_seed(seed, rnd, i)))
    return ops


WORKLOADS = {"trials": trials_round, "pools": pools_round, "lp": lp_round}
