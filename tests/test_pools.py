"""The sksp and ufp set-up pools: the same estimates and stream for any
slab size (the ufp pool slices no dense block at all), the one-shot
stream above one sksp chunk, a memory gate on the benchmark's `pools`
instances, and --jobs invariance of the two schemes' reports
(hypothesis)."""

import tracemalloc

import numpy as np
import pytest

from sparsepack import montecarlo, sksp, ufptree
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
    whole, rng = sksp_pool(inst, budget)
    monkeypatch.setattr(montecarlo, "_SLAB", slab)
    sliced, sliced_rng = sksp_pool(inst, budget)
    assert sliced.probe_estimates.tobytes() == whole.probe_estimates.tobytes()
    assert np.array(sliced.keeps).tobytes() == np.array(whole.keeps).tobytes()
    assert sliced_rng.bit_generator.state == rng.bit_generator.state


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


def one_shot_draw(engine, yp, keeps, B, rng):
    """The draw as four whole-block `rng.random` calls, reduced after."""
    T, n = yp.shape
    hit = np.ones((B, T + 1, n), dtype=bool)
    np.less(rng.random((B, T, n)), yp, out=hit[:, :T])
    tau = hit.argmax(axis=1)
    orders = np.argsort(rng.random((B, T, n)), axis=2)
    coins = rng.random((B, T, n))
    u = rng.random((B, n))
    scen = (engine.scum < u[:, :, None]).sum(axis=2)
    keep = np.array([np.ones(n) if row is None else row for row in keeps])
    return tau, orders, coins < keep.reshape(T, n), scen


def test_a_pool_above_one_chunk_keeps_the_one_shot_stream():
    inst = gen_sksp_instance(3, 3, 3, 3, seed=1)
    budget = sksp._CHUNK + 3
    rng, twin = trial_rng(5, 0), trial_rng(5, 0)
    sampler = MultiChanceSampler(inst, sksp_x(inst), TWO_POOLS, rng,
                                 sim_budget=budget)
    engine = sampler.engine
    for t in range(2):
        yp, keeps = sampler.yp_full[:t + 1], sampler.keeps[:t] + [None]
        counts = np.zeros(inst.n, dtype=np.int64)
        for b in (sksp._CHUNK, 3):
            draws = one_shot_draw(engine, yp, keeps, b, twin)
            counts += (engine._pass(draws)[0] == t).sum(axis=0)
        assert (counts / budget).tobytes() == sampler.probe_estimates[t].tobytes()
    assert twin.bit_generator.state == rng.bit_generator.state
    # and the draw itself, sliced at the default slab
    yp, keeps = sampler.yp_full, sampler.keeps
    sliced = engine._draw(yp, keeps, budget, trial_rng(6, 0))
    for got, want in zip(sliced, one_shot_draw(engine, yp, keeps, budget,
                                               trial_rng(6, 0))):
        assert np.array_equal(got, want)


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
    assert peak <= 20
    for seed in (1, 2, 3):
        net = gen_random_tree(60, 40, seed)
        x = tree_x(net)
        peak = traced_peak_mib(lambda: UfpCrScheme(
            net, x, UfpParams(0.1, 100_000), trial_rng(seed, 0)))
        assert peak <= 16, f"tree seed {seed}"


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
