"""The sksp and ufp set-up pools: the same estimates and stream for any
slab size (the ufp pool slices no dense block at all, and sksp's
`chance_tally` slices as its pools do), each sksp pool run as one walk
of that pool's chances, the keep-row bytes of the benchmark's `pools`
set-ups, memory gates on those instances and on many scenarios, and
--jobs invariance of the two schemes' reports (hypothesis)."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from sparsepack import montecarlo, ufptree
from sparsepack.errors import AttenuationError
from sparsepack.harness import (CHUNK_TRIALS, ExperimentSpec, empirical_ratio,
                                gen_random_tree, gen_sksp_instance, report_to_json)
from sparsepack.lp import solve_packing_lp
from sparsepack.montecarlo import trial_rng
from sparsepack.sksp import (ChanceSchedule, MultiChanceSampler, compute_schedule,
                             expected_size_instance)
from sparsepack.ufptree import UfpCrScheme, UfpParams, tree_lp_instance

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MiB = 1 << 20
# two estimated chances, so the second pool runs the first attenuated
TWO_POOLS = ChanceSchedule(alphas=(1.0, 0.5), betas=(0.5, 0.05))


def sksp_x(inst):
    return solve_packing_lp(expected_size_instance(inst), strengthen=False).x


def tree_x(net):
    return solve_packing_lp(tree_lp_instance(net), strengthen=False).x


def sksp_pool(inst, budget):
    rng = trial_rng(2, 0)
    return MultiChanceSampler(inst, sksp_x(inst), TWO_POOLS, rng,
                              sim_budget=budget), rng


def sksp_pool_and_tally(inst, budget):
    """The pool, its stream, and `chance_tally` counts of `budget` runs
    with the tally's stream."""
    sampler, rng = sksp_pool(inst, budget)
    tally_rng = trial_rng(2, 1)
    counts = sampler.chance_tally(budget, tally_rng)[0]
    return sampler, rng, counts, tally_rng


def ufp_pool(net, budget):
    rng = trial_rng(3, 0)
    return UfpCrScheme(net, tree_x(net), UfpParams(0.1, budget), rng), rng


# (slab, pool size): 997 elements leave sksp slices of 99 and 49 runs,
# neither of which divides 20,003; a slab of one element leaves one run
# per slice.
SLABS = [(997, 20_003), (1, 301)]


@pytest.mark.parametrize("slab, budget", SLABS)
def test_sksp_pool_does_not_depend_on_the_slab(slab, budget, monkeypatch):
    inst = gen_sksp_instance(10, 6, 3, 3, seed=2)
    whole, rng, counts, tally_rng = sksp_pool_and_tally(inst, budget)
    monkeypatch.setattr(montecarlo, "_SLAB", slab)
    sliced, sliced_rng, sliced_counts, sliced_tally_rng = sksp_pool_and_tally(
        inst, budget)
    assert sliced.probe_estimates.tobytes() == whole.probe_estimates.tobytes()
    assert np.array(sliced.keeps).tobytes() == np.array(whole.keeps).tobytes()
    assert sliced_rng.bit_generator.state == rng.bit_generator.state
    assert np.array_equal(sliced_counts, counts)
    assert sliced_tally_rng.bit_generator.state == tally_rng.bit_generator.state


def no_run_slices(runs, width):
    raise AssertionError("the ufp pool draws no dense run slices")


@pytest.mark.parametrize("slab, budget", SLABS)
def test_ufp_pool_does_not_depend_on_the_slab(slab, budget, monkeypatch):
    # The ufp pool draws only each demand's sampled runs, so it must not
    # slice a dense (runs, demands) block at all.
    net = gen_random_tree(60, 40, seed=1)
    monkeypatch.setattr(montecarlo, "run_slices", no_run_slices)
    monkeypatch.setattr(ufptree, "run_slices", no_run_slices, raising=False)
    whole, rng = ufp_pool(net, budget)
    monkeypatch.setattr(montecarlo, "_SLAB", slab)
    sliced, sliced_rng = ufp_pool(net, budget)
    assert sliced.eta.tobytes() == whole.eta.tobytes()
    assert sliced.keep.tobytes() == whole.keep.tobytes()
    assert sliced_rng.bit_generator.state == rng.bit_generator.state


def test_each_sksp_pool_run_is_one_walk_of_its_chances():
    # A pool for chance t runs chances 0..t, the earlier ones attenuated;
    # its estimate is the count of chance-t adds over B consecutive walks
    # of that (t + 1)-chance plan, over several run slices.
    inst = gen_sksp_instance(10, 6, 3, 3, seed=2)
    budget = 20_003
    sampler, rng = sksp_pool(inst, budget)
    engine, twin = sampler.engine, trial_rng(2, 0)
    assert len(montecarlo.run_slices(budget, 3 * 2 * inst.n + inst.n)) > 1
    for t in range(2):
        keeps = sampler.keeps[:t + 1].copy()
        keeps[t] = 1.0  # the pool runs chance t free
        plan = engine._plan(sampler.yp_full[:t + 1].tolist(), keeps.tolist())
        counts = np.zeros(inst.n, dtype=np.int64)
        for _ in range(budget):
            counts += np.equal(engine._walk(plan, twin).added_chance, t)
        assert (counts / budget).tobytes() == sampler.probe_estimates[t].tobytes()
    assert twin.bit_generator.state == rng.bit_generator.state


# sha256 of the float64 keep rows of the benchmark's `pools` set-ups, as
# `round` builds them at seed 2 (sksp, a free row as ones) and seed 1
# (ufp, tree seed 1).  A last-ulp change in a keep probability rarely
# moves a report byte, so these pins see what the report pins cannot.
POOLS_SKSP_KEEPS_SHA256 = {
    True: "7b213b8a01423fb1e5a2d3f9fb197f811e47563eb2b81bc2eb7aed879df6a6d8",
    False: "deae8cdf3f912753f2022b8b393fc6c9906a89a16a480547f7e53da02d26dcf7",
}
POOLS_UFP_KEEP_SHA256 = (
    "b7aa16394325bb78c380fac9986c47cf90dbecd4af810c7255784bcd45e1d793")


@pytest.mark.parametrize("attenuate_last", [True, False])
def test_pools_sksp_keep_rows_are_pinned(attenuate_last):
    inst = gen_sksp_instance(10, 6, 3, 3, seed=2)
    sampler = MultiChanceSampler(inst, sksp_x(inst), compute_schedule(2, inst.k),
                                 trial_rng(2, 0, module=103), sim_budget=100_000,
                                 attenuate_last=attenuate_last)
    assert sampler.keeps.dtype == np.float64 and sampler.keeps.shape == (2, 10)
    assert (sampler.keeps[-1] == 1.0).all() != attenuate_last
    digest = hashlib.sha256(sampler.keeps.tobytes()).hexdigest()
    assert digest == POOLS_SKSP_KEEPS_SHA256[attenuate_last]


def test_pools_ufp_keep_is_pinned():
    net = gen_random_tree(60, 40, seed=1)
    scheme = UfpCrScheme(net, tree_x(net), UfpParams(0.1, 100_000),
                         trial_rng(1, 0, module=105))
    assert scheme.keep.dtype == np.float64
    digest = hashlib.sha256(scheme.keep.tobytes()).hexdigest()
    assert digest == POOLS_UFP_KEEP_SHA256


def traced_peak_mib(build):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build()
        return (tracemalloc.get_traced_memory()[1] - base) / MiB
    finally:
        tracemalloc.stop()


def test_pools_instances_set_up_in_bounded_memory():
    # The benchmark's `pools` instances at its 100,000-simulation pools.
    # Pools that hold every uniform as float64 peak at 36.3 MiB (sksp)
    # and 40.3 MiB (each tree).
    inst = gen_sksp_instance(10, 6, 3, 3, seed=2)
    x = sksp_x(inst)
    peak = traced_peak_mib(lambda: MultiChanceSampler(
        inst, x, compute_schedule(2, inst.k), trial_rng(2, 0),
        sim_budget=100_000))
    assert peak <= 6
    for seed in (1, 2, 3):
        net = gen_random_tree(60, 40, seed)
        x = tree_x(net)
        peak = traced_peak_mib(lambda: UfpCrScheme(
            net, x, UfpParams(0.1, 100_000), trial_rng(seed, 0)))
        assert peak <= 16, f"tree seed {seed}"


def test_sksp_pool_memory_does_not_grow_with_the_scenario_count():
    # 20 scenarios per item.  A pass that picks the scenario of every
    # (run, item) pair of a run slice up front holds a runs x items x
    # scenarios table, and peaks at 3.93 MiB here.
    inst = gen_sksp_instance(10, 6, 3, 20, seed=2)
    x = sksp_x(inst)
    peak = traced_peak_mib(lambda: MultiChanceSampler(
        inst, x, compute_schedule(2, inst.k), trial_rng(2, 0),
        sim_budget=100_000))
    assert peak <= 3.5


@pytest.mark.parametrize("alg", ["sksp", "ufp"])
@hypothesis.settings(max_examples=4, deadline=None)
@hypothesis.given(size=st.integers(3, 9), seed=st.integers(0, 2**16))
def test_pool_schemes_are_job_count_invariant(alg, size, seed):
    if alg == "sksp":
        inst = gen_sksp_instance(size, 4, 3, 3, seed)
        params = {"sim_budget": 3_000}
    else:
        inst = gen_random_tree(size + 3, size, seed)
        params = {"alpha": 0.1, "sim_budget": 3_000}
    reports = []
    for jobs in (1, 2):
        # two chunks, so --jobs 2 really splits the trials
        spec = ExperimentSpec(alg, inst, CHUNK_TRIALS + 300, seed, jobs=jobs,
                              params=params)
        try:
            reports.append(report_to_json(empirical_ratio(spec)))
        except AttenuationError:
            hypothesis.reject()
    assert reports[0] == reports[1]
