"""Phase boundaries and layer spans, taken from outside the program.

Nothing under src/ is edited.  Both classes replace names that the
program's modules look up at call time (a module global such as
`harness.trial_rng`, or a method on a public class) with a wrapper that
notes the time and calls the original, and put the originals back when
closed.

`Phases` is always on.  It touches only calls made a few times per
operation, so it costs nothing measurable:

    harness.trial_rng           first call after set-up = first trial starts
    harness.MultiChanceSampler  pool built = set-up over (sksp)
    harness.UfpCrScheme         safety table built = set-up over (ufp)
    harness.write_report_json   report starts (round)
    cli.solve_packing_lp        solve returned, output starts (solve-lp)

`Tracer` is on only in traced passes.  It wraps per-trial calls too, so
it slows those passes; the benchmark reports by how much.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, name, make):
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def close(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class Phases:
    """Splits one operation into set-up, trials and report.

    `begin` starts an operation; `end` returns its phase lengths in
    seconds.  For a `round`, set-up runs from the start to the first
    trial and the trial phase from there to the report.  For `solve-lp`
    everything up to writing the output is set-up.
    """

    def __init__(self, sp):
        self._patches = _Patches()
        self._op = None
        harness = sp.harness
        self._patches.replace(harness, "trial_rng", self._on_chunk_rng)
        self._patches.replace(harness, "MultiChanceSampler", self._arming)
        self._patches.replace(harness, "UfpCrScheme", self._arming)
        self._patches.replace(harness, "write_report_json", self._on_report)
        self._patches.replace(sp.cli, "solve_packing_lp", self._on_solved)

    def close(self):
        self._patches.close()

    def begin(self, alg):
        # sksp and ufp draw a set-up stream before building their pools,
        # so the first chunk stream only counts once the pool exists.
        self._op = {"alg": alg, "t0": clock(), "trial_start": None,
                    "work_end": None, "armed": alg not in ("sksp", "ufp")}

    def end(self, trials, ok=True):
        op, t_end = self._op, clock()
        self._op = None
        if not ok:   # a failed command has no phases; all of it is set-up
            wall = t_end - op["t0"]
            return {"setup": wall, "trial": 0.0, "report": 0.0, "wall": wall}
        if op["work_end"] is None or (trials and op["trial_start"] is None):
            raise RuntimeError(
                f"{op['alg']}: phase boundaries not seen; the program no longer "
                "calls the functions perfbench/probe.py wraps")
        t0, work_end = op["t0"], op["work_end"]
        trial_start = op["trial_start"] if trials else work_end
        return {"setup": trial_start - t0, "trial": work_end - trial_start,
                "report": t_end - work_end, "wall": t_end - t0}

    def _on_chunk_rng(self, original):
        def trial_rng(*args, **kwargs):
            op = self._op
            if op is not None and op["armed"] and op["trial_start"] is None:
                op["trial_start"] = clock()
            return original(*args, **kwargs)
        return trial_rng

    def _arming(self, original):
        def build(*args, **kwargs):
            runner = original(*args, **kwargs)
            if self._op is not None:
                self._op["armed"] = True
            return runner
        return build

    def _on_report(self, original):
        def write_report_json(*args, **kwargs):
            if self._op is not None:
                self._op["work_end"] = clock()
            return original(*args, **kwargs)
        return write_report_json

    def _on_solved(self, original):
        def solve_packing_lp(*args, **kwargs):
            solution = original(*args, **kwargs)
            if self._op is not None:
                self._op["work_end"] = clock()
            return solution
        return solve_packing_lp


class Tracer:
    """Spans around each layer's public calls, summed per name.

    A span's self time is its length minus the spans opened inside it.
    Counts are recorded at the same boundaries.  `take` hands over and
    resets what was gathered since the last call, so the caller can
    file it under the operation that just ran.  Per-trial outputs are
    kept in `outputs` for the feasibility checks.
    """

    def __init__(self, sp):
        self._stack = []
        self._reset()
        p = self._patches = _Patches()
        span, kcs = self._span, sp.kcspip

        lp_solve = lambda f: span("lp.solve", f)
        p.replace(sp.cli, "solve_packing_lp", lp_solve)
        p.replace(sp.harness, "solve_packing_lp", lp_solve)
        p.replace(sp.sksp, "solve_packing_lp", lp_solve)
        p.replace(sp.lp, "build_relaxation",
                  lambda f: span("lp.build", f, self._after_build))
        p.replace(sp.core, "validate_instance",
                  lambda f: span("core.validate", f))
        p.replace(sp.cli, "_load_input", lambda f: span("cli.load", f))

        p.replace(kcs.KcsRounder, "trial",
                  lambda f: span("kcspip.trial", f, self._after_kcs_trial))
        p.replace(kcs.KcsRounder, "survivors", self._survivors)
        p.replace(kcs, "build_conflict_digraph",
                  lambda f: span("kcspip.digraph", f, self._after_digraph))
        p.replace(kcs, "remove_anomalous", lambda f: span("kcspip.anomaly", f))
        p.replace(kcs, "color_directed_graph",
                  lambda f: span("graphcolor.color", f))
        p.replace(sp.graphcolor, "peel_order", lambda f: span("graphcolor.peel", f))
        p.replace(kcs.BknsRounder, "trial",
                  lambda f: span("kcspip.bkns_trial", f, self._after_bkns_trial))
        p.replace(sp.harness, "check_feasible",
                  lambda f: span("core.check_feasible", f))

        p.replace(sp.harness, "MultiChanceSampler",
                  lambda f: span("sksp.pool", f, self._after_sksp_pool))
        p.replace(sp.sksp.MultiChanceSampler, "trial",
                  lambda f: span("sksp.trial", f, self._after_sksp_trial))
        p.replace(sp.harness, "UfpCrScheme",
                  lambda f: span("ufptree.pool", f, self._after_ufp_pool))
        p.replace(sp.ufptree.UfpCrScheme, "trial",
                  lambda f: span("ufptree.trial", f, self._after_ufp_trial))
        p.replace(sp.harness, "matching_weight", self._matching_weight)

    def close(self):
        self._patches.close()

    def _reset(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.outputs = []

    def take(self):
        got = {"calls": dict(self.calls), "total": dict(self.total),
               "self": dict(self.self_time), "counts": dict(self.counts),
               "outputs": self.outputs}
        self._reset()
        return got

    def _span(self, name, original, after=None):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - inner
            if after is not None:
                after(result, args)
            return result
        return traced

    # -- counts at the span boundaries ------------------------------------

    def _after_build(self, relaxation, args):
        rows, cols = relaxation[1].shape
        # the dense simplex tableau is (rows + 1) x (cols + rows + 1)
        self.counts["lp.tableau_cells"] += (rows + 1) * (cols + rows + 1)

    def _survivors(self, original):
        def survivors(rounder, sampled):
            items, sub = original(rounder, sampled)
            self.counts["kcspip.sampled"] += len(sampled)
            self.counts["kcspip.kept"] += len(items)
            return items, sub
        return survivors

    def _after_digraph(self, g, args):
        self.counts["kcspip.survivors"] += g.n
        self.counts["kcspip.arcs"] += sum(map(len, g.out))

    def _after_kcs_trial(self, chosen, args):
        self.counts["kcspip.chosen"] += len(chosen)
        self.outputs.append(chosen)

    def _after_bkns_trial(self, chosen, args):
        self.counts["kcspip.bkns_chosen"] += len(chosen)
        self.outputs.append(chosen)

    def _after_sksp_pool(self, sampler, args):
        estimated = ~np.isnan(sampler.probe_estimates).all(axis=1)
        zero = estimated & (sampler.targets == 0.0).all(axis=1)
        self.counts["sksp.pool_sims"] += int(estimated.sum()) * sampler.sim_budget
        self.counts["sksp.zero_target_sims"] += int(zero.sum()) * sampler.sim_budget

    def _after_sksp_trial(self, outcome, args):
        self.counts["sksp.adds"] += sum(t >= 0 for t in outcome.added_chance)
        self.outputs.append(outcome)

    def _after_ufp_pool(self, scheme, args):
        # the harness never hands in a safety table, so the pool always runs
        self.counts["ufptree.pool_sims"] += scheme.params.sim_budget
        self.counts["ufptree.clamped"] += len(scheme.clamped)

    def _after_ufp_trial(self, routed, args):
        self.counts["ufptree.routed"] += len(routed)
        self.outputs.append(routed)

    def _matching_weight(self, original):
        def matching_weight(h, edge_ids):
            self.outputs.append(edge_ids)
            return original(h, edge_ids)
        return matching_weight
