"""Randomized roundings for column-sparse packing, at desk scale.

Four schemes share one contract: solve a relaxation, sample items
independently at rates proportional to the fractional solution, then
resolve contention so that every item survives with probability at
least a universal constant times its fractional value, while the
selected set is feasible on every single run.

    kcspip      alteration pipeline with conflict-digraph coloring
    sksp        stochastic probing over several attenuated chances
    hypermatch  hypergraph matching by marked-edge sweep
    ufptree     unsplittable flow on trees by contention resolution

`harness` drives the Monte Carlo experiments that compare empirical
inclusion frequencies against the analytic floors, and `cli` exposes
the whole package as the `sparsepack` command.
"""

from .core import (FEAS_TOL, FractionalSolution, PackingInstance,
                   check_feasible, column_sparsity, load_instance,
                   make_instance, objective_value, require_valid,
                   save_instance, usage_vector, validate_instance)
from .errors import (AttenuationError, DegreeError, DomainError,
                     EstimateError, InternalInvariantError, ParamError,
                     SizeError, SparsepackError, UnboundedError,
                     ValidationError)
from .graphcolor import (Coloring, DiGraph, color_directed_graph,
                         color_neg_corr, make_digraph, neg_corr_palette,
                         peel_order, verify_coloring)
from .harness import (ExperimentSpec, RoundingReport, brute_force_opt,
                      empirical_ratio, gen_gap_instance,
                      gen_random_hypergraph, gen_random_kcs, gen_random_tree,
                      gen_sksp_instance, kcspip_ratio_trend,
                      mc_inclusion_kcspip, write_report_csv,
                      write_report_json)
from .hypermatch import (Hypergraph, attenuation_g, exact_match_probabilities,
                         is_matching, load_hypergraph, make_hypergraph,
                         matching_weight, round_matching, save_hypergraph,
                         theoretical_bound)
from .kcspip import (BknsRounder, KcsParams, KcsRounder,
                     build_conflict_digraph, discard_blocked,
                     exact_inclusion_probabilities,
                     exact_pairwise_probabilities, instance_k,
                     sample_probabilities)
from .lp import simplex_maximize, solve_packing_lp
from .montecarlo import attenuation_keep_prob, binomial_stderr, trial_rng
from .sksp import (ChanceSchedule, MultiChanceSampler, SkspInstance,
                   StochasticItem, compute_schedule, default_chances,
                   expected_size_instance, ideal_gamma, load_sksp, make_item,
                   save_sksp)
from .ufptree import (TreeNetwork, UfpCrScheme, UfpParams, balance_objective,
                      load_tree, make_tree, optimize_alpha, save_tree,
                      tree_path)

__version__ = "0.1.0"
