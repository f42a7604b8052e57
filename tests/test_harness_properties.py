"""--jobs invariance of the kcspip, bkns and hm reports on small
generated instances (hypothesis); tests/test_pools.py holds the same
property for sksp and ufp."""

import pytest

from sparsepack.harness import (CHUNK_TRIALS, ExperimentSpec, empirical_ratio,
                                gen_random_hypergraph, gen_random_kcs,
                                report_to_json)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@pytest.mark.parametrize("alg", ["kcspip", "bkns", "hm"])
@hypothesis.settings(max_examples=3, deadline=None)
@hypothesis.given(size=st.integers(3, 12), seed=st.integers(0, 2**16),
                  epsilon=st.sampled_from([None, 0.5]))
def test_trial_schemes_are_job_count_invariant(alg, size, seed, epsilon):
    if alg == "hm":
        inst = gen_random_hypergraph(size, 2 * size, 3, seed)
        params = {}
    else:
        inst = gen_random_kcs(size, 4, 3, seed)
        # epsilon switches kcspip to the randomized colouring; bkns
        # reads no epsilon, so it would refuse the key
        params = {"epsilon": epsilon} if alg == "kcspip" else {}
    reports = []
    for jobs in (1, 2):
        # two chunks, so --jobs 2 really splits the trials
        spec = ExperimentSpec(alg, inst, CHUNK_TRIALS + 300, seed, jobs=jobs,
                              params=params)
        reports.append(report_to_json(empirical_ratio(spec)))
    assert reports[0] == reports[1]
