"""sparsepack benchmark.

    python3 perfbench/run.py --workload {trials,pools,lp} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src.  The run repeats whole rounds of the workload's operations (see
workloads.py) for about S seconds, and at least three times.  Each
operation goes through `sparsepack.cli.main`, the entry point of the
`sparsepack` command, in this process.  Every output is checked after
timing (see checks.py), and the last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, each operation
taken at its slowest round (see slowest_round):

    setup_s       everything before the first trial, summed over the
                  round's operations: load, validation, LP, pools
    trials_per_s  trials / time from the first trial to the report
    wall_s        all operations of the round, imports not included
    peak_rss_mb   peak resident set of this process, before any check

With --trace 1 every round runs its operations twice, untraced and
traced, each pass going first in turn; the metrics are the per-layer
ones of layers.py, and the spans are written to
.perfbench/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import os

# One thread per numpy pool, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback

import numpy as np

from checks import RELAXATIONS, TRIAL_FEASIBILITY, check_lp, check_report
from layers import layer_metrics
from probe import Phases, Tracer, clock
from workloads import WORKLOADS, Builder

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
MIN_ROUNDS = 3
MODULES = ("cli", "core", "graphcolor", "harness", "kcspip", "lp", "sksp",
           "ufptree")
END_TO_END_UNITS = {"setup_s": "s", "trials_per_s": "1/s", "wall_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("trials", "pools", "lp"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def load_program():
    """The sparsepack modules from ./src, or None if there is no source."""
    if not os.path.isfile(os.path.join(SRC, "sparsepack", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    return argparse.Namespace(**{
        name: importlib.import_module(f"sparsepack.{name}") for name in MODULES})


def slowest_round(rounds):
    """A round's phases, each operation taken at its slowest round.

    The host's speed swings by up to a factor of two for tens of seconds
    at a time as its neighbours' load comes and goes: a fixed LP solve
    took from 0.28 to 0.70 s within five minutes.  The slow, fully
    loaded level is the one that nearly every run meets, so each
    operation's slowest round repeats from run to run far better than
    its median or its fastest round, which move with the share of quiet
    periods a run happens to get (see README.md).
    """
    typical = dict.fromkeys(("setup", "trial", "report", "wall"), 0.0)
    for samples in zip(*rounds):
        for key in typical:
            typical[key] += max(s[key] for s in samples)
    return typical


class Execution:
    """One operation run once: its phases, output and check messages."""

    def __init__(self, op, rnd, traced):
        self.op, self.rnd, self.traced = op, rnd, traced
        self.phases = None
        self.lp = None        # (x, objective) awaiting the LP check
        self.report = None    # kept in traced passes only, for layers.py
        self.layers = None
        self.messages = []

    def span(self):
        return {"round": self.rnd, "traced": self.traced, "alg": self.op.alg,
                "instance": os.path.basename(self.op.instance),
                "trials": self.op.trials, "phases": self.phases,
                "layers": self.layers, "failed": self.messages[:1]}


class Bench:
    def __init__(self, args, sp, work):
        self.args, self.sp = args, sp
        self.builder = Builder(sp.cli, work)
        self.phases = Phases(sp)
        self.instances = {}
        self.executions = []
        self.rounds = []   # phases of each untraced round, per operation

    def close(self):
        self.phases.close()

    def instance(self, path):
        if path not in self.instances:
            with open(path) as fh:
                self.instances[path] = json.load(fh)
        return self.instances[path]

    def run_pass(self, ops, rnd, tracer):
        """Run the operations in order; return their phases."""
        phases = []
        for op in ops:
            ex = Execution(op, rnd, tracer is not None)
            self.executions.append(ex)
            self.phases.begin(op.alg)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.sp.cli.main(op.argv)
            except Exception:
                traceback.print_exc()
                code = -1
            ex.phases = self.phases.end(op.trials, ok=code == 0)
            phases.append(ex.phases)
            if tracer is not None:
                ex.layers = tracer.take()
                outputs = ex.layers.pop("outputs")
            if code != 0:
                ex.messages.append(f"exit code {code}")
                continue
            with open(op.output) as fh:
                output = json.load(fh)
            d = self.instance(op.instance)
            # only what the checks after timing need is kept, as arrays,
            # so peak RSS does not grow with the number of rounds
            if op.alg == "solve-lp":
                ex.lp = np.asarray(output["x"]), output["objective"]
                if op.x_file:   # hand x on to the following `round --x`
                    with open(op.x_file, "w") as fh:
                        json.dump(output["x"], fh)
            else:
                if op.solves_lp:
                    ex.lp = (np.array([item["x"] for item in output["items"]]),
                             output["lp_objective"])
                ex.messages += check_report(op.alg, d, output, op.trials, op.params)
            if tracer is not None and op.alg != "solve-lp":
                ex.report = output
                if not outputs:
                    raise RuntimeError(f"{op.alg}: no trial outputs were traced")
                ex.messages += TRIAL_FEASIBILITY[op.alg](d, outputs)
        return phases

    def check_lps(self):
        """LP checks need scipy, so they run after peak RSS is read."""
        relaxations = {}
        for ex in self.executions:
            if ex.lp is None:
                continue
            path = ex.op.instance
            if path not in relaxations:
                relaxations[path] = RELAXATIONS[ex.op.family](self.instance(path))
            ex.messages += check_lp(relaxations[path], *ex.lp)

    def run(self):
        make_round = WORKLOADS[self.args.workload]
        untraced, traced = self.rounds, []
        durations = []
        start = clock()
        rnd = 0
        while rnd < MIN_ROUNDS or (clock() - start + statistics.fmean(durations)
                                   <= self.args.seconds):
            t0 = clock()
            ops = make_round(self.builder, self.args.seed, rnd)
            # traced runs make both passes, each going first in turn, so
            # the overhead is not biased by what the first pass warms up
            passes = (False,)
            if self.args.trace:
                passes = (False, True) if rnd % 2 == 0 else (True, False)
            for traced_pass in passes:
                if not traced_pass:
                    untraced.append(self.run_pass(ops, rnd, None))
                    continue
                tracer = Tracer(self.sp)
                try:
                    traced.append(self.run_pass(ops, rnd, tracer))
                finally:
                    tracer.close()
            durations.append(clock() - t0)
            rnd += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.check_lps()

        if self.args.trace:
            traced_ops = [dict(ex.span(), report=ex.report)
                          for ex in self.executions if ex.traced]
            # the traced wall_s minus the untraced one, both as in --trace 0
            overhead = slowest_round(traced)["wall"] - slowest_round(untraced)["wall"]
            metrics = layer_metrics(traced_ops, len(traced), overhead)
            self.write_trace(metrics)
        else:
            typical = slowest_round(untraced)
            values = {
                "setup_s": typical["setup"],
                "trials_per_s": sum(op.trials for op in ops) / typical["trial"],
                "wall_s": typical["wall"],
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}
        failed = [ex for ex in self.executions if ex.messages]
        for ex in failed:
            print(f"check failed: round {ex.rnd} {ex.op.alg} "
                  f"{os.path.basename(ex.op.instance)}: {ex.messages[0]}",
                  file=sys.stderr)
        # A failure of an operation that workloads.py marks with a known
        # program fault is counted in `failed` only; any other failure
        # also makes the run incorrect.
        return {"correct": all(ex.op.known_fault for ex in failed),
                "attempted": len(self.executions), "failed": len(failed),
                "metrics": metrics}

    def write_trace(self, metrics):
        path = os.path.join(
            OUT, f"trace-{self.args.workload}-seed{self.args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": self.args.workload, "seed": self.args.seed,
                       "metrics": metrics,
                       "operations": [ex.span() for ex in self.executions]},
                      fh, indent=1)
            fh.write("\n")


def main(argv=None):
    args = parse_args(argv)
    sp = load_program()
    if sp is None:
        print(f"perfbench: no sparsepack source under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    bench = None
    try:
        bench = Bench(args, sp, work)
        result = bench.run()
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
