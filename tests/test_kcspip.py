"""Alteration pipeline: classification, discard, conflicts, colors, oracles.

The discard step is checked against a second, independent
implementation of the blocking predicates, written straight from their
definitions with no shared code, over every subset of a purpose-built
instance that has all three coefficient classes interacting.
"""

import itertools
import math

import numpy as np
import pytest

from sparsepack.core import check_feasible, make_instance, require_valid
from sparsepack.errors import ParamError, SizeError, ValidationError
from sparsepack.kcspip import (BknsRounder, KcsParams, KcsRounder,
                               build_conflict_digraph,
                               conditional_inclusion_probabilities,
                               discard_blocked,
                               exact_inclusion_probabilities,
                               exact_pairwise_probabilities, instance_k,
                               remove_anomalous, sample_probabilities)
from sparsepack import cli
from sparsepack.harness import gen_gap_instance, gen_random_kcs
from sparsepack.lp import solve_packing_lp
from sparsepack.montecarlo import binomial_stderr, trial_rng


# ---------------------------------------------------------------------------
# Parameters and classification

def test_default_parameters_track_sparsity():
    expected_d = {2: 2, 5: 2, 10: 3, 20: 6}
    for k, d in expected_d.items():
        p = KcsParams.defaults(k)
        assert p.alpha == pytest.approx(max(1.0, k ** 0.4))
        assert p.d == d
        assert p.ell == max(3, math.ceil(80.0 * math.log(k / p.alpha)))


def test_default_alpha_clamps_to_one():
    p = KcsParams.defaults(1)
    assert p.alpha == 1.0
    assert p.ell == 3
    assert p.d == 1


def test_degree_correction_starts_at_e():
    # Below alpha = e the sqrt(alpha ln alpha) term is taken as zero.
    just_under = KcsParams.defaults(12)   # alpha = 12^0.4 = 2.702 < e
    just_over = KcsParams.defaults(13)    # alpha = 13^0.4 = 2.789 > e
    assert just_under.d == math.ceil(just_under.alpha)
    spread = math.sqrt(just_over.alpha * math.log(just_over.alpha))
    assert just_over.d == math.ceil(just_over.alpha + spread)


@pytest.mark.parametrize("kwargs", [
    dict(alpha=0.0, ell=3, d=1), dict(alpha=-1.0, ell=3, d=1),
    dict(alpha=1.0, ell=2, d=1), dict(alpha=1.0, ell=3, d=0),
    dict(alpha=1.0, ell=3, d=1, epsilon=0.0),
    dict(alpha=1.0, ell=3, d=1, epsilon=1.0),
])
def test_params_domain(kwargs):
    with pytest.raises(ParamError):
        KcsParams(**kwargs)


def test_palette_size():
    assert KcsParams(alpha=1.0, ell=3, d=4).palette_size() == 9
    assert KcsParams(alpha=1.0, ell=3, d=4, epsilon=0.5).palette_size() == 10


def test_classify_boundaries():
    # The class thresholds as the discard sees them, on one unit row at
    # ell = 4: three mediums block each other, bigs are never discarded
    # here, and tiny items whose row fits survive.
    def discard_three(a, ell=4):
        inst = make_instance([1.0], [1.0] * 3, [[(0, a)]] * 3)
        return discard_blocked(inst, {0, 1, 2}, ell=ell)

    assert discard_three(0.5) == frozenset()      # 1/2 itself is medium
    assert discard_three(0.51) == {0, 1, 2}       # big
    assert discard_three(0.25) == frozenset()     # 1/ell itself is medium
    assert discard_three(0.2499) == {0, 1, 2}     # tiny, load 0.7497 <= 1
    for ell in (2, 0):
        with pytest.raises(ParamError):
            discard_three(0.25, ell=ell)


def test_instance_k_prefers_declaration():
    inst = make_instance([1.0], [1.0], [[(0, 0.5)]], k=4)
    assert instance_k(inst) == 4
    assert instance_k(make_instance([1.0], [1.0], [[(0, 0.5)]])) == 1
    assert instance_k(make_instance([1.0], [], [])) == 1


def test_sample_probabilities_scale_and_clamp():
    inst = make_instance([1.0], [1.0, 1.0], [[(0, 0.5)], [(0, 0.5)]], k=2)
    params = KcsParams(alpha=3.0, ell=3, d=1)
    p = sample_probabilities(inst, [0.5, 1.0], params)
    assert p[0] == pytest.approx(0.75)
    assert p[1] == 1.0
    with pytest.raises(ValidationError):
        sample_probabilities(inst, [0.5], params)
    with pytest.raises(ValidationError):
        sample_probabilities(inst, [0.5, 1.5], params)


# ---------------------------------------------------------------------------
# Discard step versus an independent oracle

def survivors_oracle(inst, ell, sampled):
    """Blocking predicates re-derived from their definitions."""
    lo = 1.0 / ell

    def cls(i, j):
        a = inst.coefficient(i, j)
        if a == 0.0:
            return None
        if a > 0.5:
            return "big"
        return "med" if a >= lo else "tiny"

    out = set()
    for j in sampled:
        blocked = False
        for i, _ in inst.columns[j]:
            med = sum(1 for jp in sampled if cls(i, jp) == "med")
            soft = sum(inst.coefficient(i, jp) for jp in sampled
                       if cls(i, jp) in ("med", "tiny"))
            here = cls(i, j)
            if here == "med" and med >= 3:
                blocked = True
            if here == "tiny" and (med >= 2 or soft - inst.coefficient(i, j)
                                   > 1.0 - inst.coefficient(i, j)):
                blocked = True
        if not blocked:
            out.add(j)
    return frozenset(out)


@pytest.fixture
def mixed_class_instance():
    """Six items over three rows; with ell = 4 the classes are
    big {0:r1, 3:r1, 4:r2}, medium {0:r0, 1:r0, 2:r0, 4:r1, 5:r2},
    tiny {2:r2, 3:r0, 5:r0}."""
    return require_valid(make_instance(
        capacities=[1.0, 1.0, 1.0],
        weights=[1.0] * 6,
        columns=[
            [(0, 0.30), (1, 0.60)],
            [(0, 0.30)],
            [(0, 0.30), (2, 0.20)],
            [(0, 0.20), (1, 0.90)],
            [(1, 0.26), (2, 0.51)],
            [(0, 0.24), (2, 0.25)],
        ],
        k=2,
    ))


def test_discard_matches_oracle_on_every_subset(mixed_class_instance):
    inst = mixed_class_instance
    for size in range(inst.n + 1):
        for sampled in itertools.combinations(range(inst.n), size):
            s = frozenset(sampled)
            assert discard_blocked(inst, s, ell=4) == survivors_oracle(inst, 4, s)


def test_discard_is_simultaneous_not_cascading(mixed_class_instance):
    # Items 0, 1, 2 are all medium on row 0; each sees a medium count of
    # three and all three fall together.  A cascading variant would stop
    # after the first removal brought the count back to two.
    out = discard_blocked(mixed_class_instance, {0, 1, 2}, ell=4)
    assert out == frozenset()


def test_discard_tiny_blockers(mixed_class_instance):
    # Two mediums on row 0 block the tiny item 3 but not each other.
    assert discard_blocked(mixed_class_instance, {0, 1, 3}, ell=4) == {0, 1}
    # A single medium plus the tiny item keeps everything.
    assert discard_blocked(mixed_class_instance, {1, 3}, ell=4) == {1, 3}


def test_discard_soft_load_blocks_tiny():
    # One medium at 0.45 plus three tiny items: the medium count stays
    # at one, so only the load rule (0.45 + 0.24 + 0.24 + 0.23 > 1) can
    # block, and it blocks exactly the tiny items.
    inst = make_instance(
        [1.0], [1.0] * 4,
        [[(0, 0.45)], [(0, 0.24)], [(0, 0.24)], [(0, 0.23)]],
    )
    assert discard_blocked(inst, {0, 1, 2, 3}, ell=4) == {0}
    # Dropping one tiny item brings the load to 0.93 and keeps the rest.
    assert discard_blocked(inst, {0, 1, 2}, ell=4) == {0, 1, 2}


def test_discard_keeps_tiny_items_at_a_soft_load_of_exactly_one():
    # 0.5 + 4 * 0.125 sums to 1 exactly; the rule is a strict "> 1".
    inst = make_instance([1.0], [1.0] * 6, [[(0, 0.5)]] + [[(0, 0.125)]] * 5)
    assert discard_blocked(inst, range(5), ell=4) == frozenset(range(5))
    assert discard_blocked(inst, range(6), ell=4) == {0}


def test_discard_ignores_big_entries(mixed_class_instance):
    # Bigness never blocks at this stage: 0 and 3 are both big on row 1.
    assert discard_blocked(mixed_class_instance, {0, 3}, ell=4) == {0, 3}


def test_discard_validates_items(mixed_class_instance):
    with pytest.raises(ValidationError):
        discard_blocked(mixed_class_instance, {99}, ell=4)


# ---------------------------------------------------------------------------
# Conflict digraph and anomaly removal

def test_conflict_digraph_arcs_point_at_big_items():
    inst = make_instance(
        [1.0, 1.0], [1.0] * 3,
        [[(0, 0.9)], [(0, 0.1)], [(1, 0.3)]],
    )
    g = build_conflict_digraph(inst, {0, 1, 2})
    # vertex order is sorted survivors: 0, 1, 2
    assert g.out == ((), (0,), ())


def test_conflict_digraph_mutual_bigs():
    inst = make_instance([2.0], [1.0, 1.0], [[(0, 0.8)], [(0, 0.7)]])
    g = build_conflict_digraph(inst, {0, 1})
    assert g.out == ((1,), (0,))


def test_conflict_digraph_relabels_survivors():
    inst = make_instance(
        [1.0], [1.0] * 4,
        [[(0, 0.9)], [(0, 0.1)], [(0, 0.1)], [(0, 0.2)]],
    )
    g = build_conflict_digraph(inst, {0, 3})
    # survivors sorted are [0, 3] -> vertices 0 and 1
    assert g.out == ((), (0,))


def test_remove_anomalous_measures_original_outdegrees():
    from sparsepack.graphcolor import make_digraph

    g = make_digraph(4, [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3)])
    assert remove_anomalous(g, 2) == frozenset({2, 3})
    assert remove_anomalous(g, 3) == frozenset({0, 1, 2, 3})


# ---------------------------------------------------------------------------
# End-to-end pipeline

def test_singleton_inclusion_is_sample_rate_over_palette():
    inst = make_instance([1.0], [1.0], [[(0, 0.6)]], k=1)
    params = KcsParams(alpha=1.5, ell=3, d=1)
    probs = exact_inclusion_probabilities(inst, [0.6], params)
    assert probs[0] == pytest.approx(1.5 * 0.6 / 3.0, abs=1e-12)


def test_trial_output_is_always_feasible():
    for seed in range(4):
        inst = gen_random_kcs(n=12, m=6, k=3, seed=seed)
        x = solve_packing_lp(inst, strengthen=True).x
        params = KcsParams.defaults(instance_k(inst))
        rounder = KcsRounder(inst, x, params)
        rng = trial_rng(seed, 0)
        for _ in range(200):
            assert check_feasible(inst, rounder.trial(rng))


def test_trial_with_spread_palette_is_feasible():
    inst = gen_random_kcs(n=10, m=5, k=3, seed=1)
    x = solve_packing_lp(inst, strengthen=True).x
    params = KcsParams.defaults(3, epsilon=0.5)
    rounder = KcsRounder(inst, x, params)
    rng = trial_rng(1, 0)
    for _ in range(200):
        chosen = rounder.trial(rng)
        assert check_feasible(inst, chosen)


def test_color_classes_partition_survivors(mixed_class_instance):
    params = KcsParams(alpha=2.0, ell=4, d=2)
    rounder = KcsRounder(mixed_class_instance, [1.0] * 6, params)
    sampled = frozenset(range(6))
    items, _ = rounder.survivors(sampled)
    classes = rounder.color_classes(sampled)
    assert len(classes) == params.palette_size()
    flattened = sorted(j for cl in classes for j in cl)
    assert flattened == sorted(items)
    for cl in classes:
        assert check_feasible(mixed_class_instance, cl)


# ---------------------------------------------------------------------------
# Baseline rounding

def test_baseline_removes_all_big_conflicts():
    inst = make_instance(
        [1.0, 1.0], [1.0] * 4,
        [[(0, 0.9)], [(0, 0.8)], [(0, 0.01)], [(1, 0.3)]],
        k=1,
    )
    rounder = BknsRounder(inst, [1.0] * 4, alpha=1.0)
    assert np.all(rounder.p == 1.0)
    # Two bigs on row 0 block each other and the tiny bystander.
    out = rounder.trial(trial_rng(0, 0))
    assert out == frozenset({3})


def test_baseline_keeps_lone_big_item():
    inst = make_instance(
        [1.0], [1.0, 1.0], [[(0, 0.9)], [(0, 0.01)]], k=1,
    )
    rounder = BknsRounder(inst, [1.0, 1.0], alpha=1.0)
    # The big item survives; the tiny item sharing its row is blocked.
    assert rounder.trial(trial_rng(0, 0)) == frozenset({0})


def test_baseline_singleton_rate():
    inst = make_instance([1.0], [1.0], [[(0, 0.6)]], k=1)
    rounder = BknsRounder(inst, [0.35], alpha=1.0)
    trials = 20_000
    rng = trial_rng(2, 0)
    hits = sum(bool(rounder.trial(rng)) for _ in range(trials))
    freq = hits / trials
    assert freq == pytest.approx(0.35, abs=4 * binomial_stderr(0.35, trials))


def test_round_bkns_is_feasible_under_unit_capacities():
    for seed in range(4):
        inst = gen_random_kcs(n=12, m=6, k=3, seed=seed)
        x = solve_packing_lp(inst, strengthen=True).x
        rounder = BknsRounder(inst, x)
        rng = trial_rng(seed, 1)
        for _ in range(200):
            assert check_feasible(inst, rounder.trial(rng))


# ---------------------------------------------------------------------------
# Exact oracles

def test_conditional_probabilities_are_uniform_over_survivors(
        mixed_class_instance):
    params = KcsParams(alpha=2.0, ell=4, d=2)
    sampled = frozenset({0, 1, 3})
    rounder = KcsRounder(mixed_class_instance, [0.0] * 6, params)
    items, _ = rounder.survivors(sampled)
    cond = conditional_inclusion_probabilities(mixed_class_instance, params,
                                               sampled)
    for j in range(6):
        expected = 1.0 / params.palette_size() if j in items else 0.0
        assert cond[j] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("item", [-1, 5])
def test_conditional_inclusion_rejects_unknown_items(item):
    # -1 would otherwise read as the last item, and n as an IndexError.
    inst = gen_gap_instance(3)
    params = KcsParams.defaults(3)
    with pytest.raises(ValidationError, match="out of range"):
        conditional_inclusion_probabilities(inst, params, {item})


def test_conditional_inclusion_not_monotone_when_discard_resurrects_bigs():
    """Shrinking the sampled set can hurt an item: dropping one of three
    row-sharing mediums un-blocks the other two, and a resurrected big
    among them can push a tiny bystander's conflict out-degree past d.
    The conditional law of the full pipeline is therefore not monotone
    under sample growth, although the discard step alone is."""
    inst = make_instance(
        capacities=[1.0, 1.0],
        weights=[1.0] * 6,
        columns=[
            [(0, 0.01)],
            [(0, 0.6)],
            [(0, 0.6)],
            [(0, 0.6), (1, 0.3)],
            [(1, 0.3)],
            [(1, 0.3)],
        ],
        k=2,
    )
    params = KcsParams(alpha=1.0, ell=4, d=2)
    grown = frozenset(range(6))
    shrunk = grown - {4}
    cond_grown = conditional_inclusion_probabilities(inst, params, grown)
    cond_shrunk = conditional_inclusion_probabilities(inst, params, shrunk)
    # With all six sampled, items 3..5 are medium-blocked, leaving item 0
    # with out-arcs to 1 and 2 only; without item 4 the mediums survive,
    # item 3's big entry gives item 0 a third out-arc, and 0 is dropped.
    assert cond_grown[0] == pytest.approx(1.0 / params.palette_size())
    assert cond_shrunk[0] == 0.0


def test_exact_marginals_sum_conditionals(mixed_class_instance):
    params = KcsParams(alpha=1.0, ell=4, d=2)
    x = [0.4, 0.7, 0.2, 0.9, 0.5, 0.3]
    rounder = KcsRounder(mixed_class_instance, x, params)
    probs = exact_inclusion_probabilities(mixed_class_instance, x, params)

    total = np.zeros(6)
    p = rounder.p
    for mask in range(1 << 6):
        weight = 1.0
        sampled = []
        for j in range(6):
            if mask >> j & 1:
                weight *= p[j]
                sampled.append(j)
            else:
                weight *= 1.0 - p[j]
        cond = conditional_inclusion_probabilities(
            mixed_class_instance, params, frozenset(sampled))
        total += weight * cond
    assert np.allclose(total, probs, atol=1e-12)


def test_exact_enumeration_size_caps():
    big = gen_random_kcs(n=17, m=8, k=3, seed=0)
    params = KcsParams.defaults(3)
    with pytest.raises(SizeError):
        exact_inclusion_probabilities(big, [0.1] * 17, params)
    mid = gen_random_kcs(n=11, m=8, k=3, seed=0)
    with pytest.raises(SizeError):
        exact_pairwise_probabilities(mid, [0.1] * 11, params)


@pytest.mark.parametrize("epsilon", [None, 0.5])
def test_pairwise_diagonal_carries_marginals(mixed_class_instance, epsilon):
    params = KcsParams(alpha=1.2, ell=4, d=2, epsilon=epsilon)
    x = [0.5, 0.3, 0.8, 0.4, 0.6, 0.2]
    joint = exact_pairwise_probabilities(mixed_class_instance, x, params)
    marginals = exact_inclusion_probabilities(mixed_class_instance, x, params)
    assert np.allclose(np.diag(joint), marginals, atol=1e-12)
    assert np.allclose(joint, joint.T, atol=1e-15)
    for u in range(6):
        for v in range(6):
            if u != v:
                assert joint[u, v] <= min(marginals[u], marginals[v]) + 1e-12


# ---------------------------------------------------------------------------
# Report bytes

# sha256 of the --json report of `round <alg> <flags> --trials 5000
# --seed 11` on `gen kcs --n 40 --m 16 --k 3 --seed 4`: two chunks, the
# second one partial.  The per-trial path may change how it computes,
# never what it draws or reports.  The second digest leaves out
# objective_std_err; it was recorded before the objective variance became
# a merge of per-chunk centred sums, and the rest of the report must not
# move.
GOLDEN_REPORTS_SHA256 = {
    ("kcspip",): (
        "616b3c291715212dd3fe6c83d9a7a96fc801c86a52719b911cd7a540ad7d527a",
        "1ec25cd9b1cc0be357591795019e4f579ed77fcd8d750ae9f8cfde24fdc97853"),
    ("kcspip", "--epsilon", "0.5"): (
        "cd57b443262269cb323c8ce9e7c364f5e29da1e0bd5423bd0a6c8e3b30932536",
        "4fe1618ebbf41274b5389e483516b044a1bce8bee6e820b1b399dc4d3e632dab"),
    ("bkns",): (
        "9396804363dfc82042aa2b9242ba11c133a06c35243d31029eeb78c44ad5a416",
        "a0d81685c5e7d783c98dac5c70c04121e58aec89193eeec9ae0f764a5767dda6"),
}


@pytest.mark.parametrize("run", sorted(GOLDEN_REPORTS_SHA256))
def test_round_report_bytes_are_pinned(run, tmp_path, capsys, report_digests):
    inst, report = tmp_path / "kcs.json", tmp_path / "report.json"
    assert cli.main(["gen", "kcs", "--n", "40", "--m", "16", "--k", "3",
                     "--seed", "4", "-o", str(inst)]) == 0
    alg, *flags = run
    assert cli.main(["round", alg, "--instance", str(inst), "--trials", "5000",
                     "--seed", "11", *flags, "--json", str(report)]) == 0
    capsys.readouterr()
    assert report_digests(report) == GOLDEN_REPORTS_SHA256[run]
