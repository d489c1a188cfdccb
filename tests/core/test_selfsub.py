"""Tests for the self-substitution fallback."""

import itertools

from repro.core.candidates import DependencyTracker
from repro.core.order import find_order
from repro.core.selfsub import (
    can_self_substitute,
    run_self_substitution,
    self_substitute,
)
from repro.core.sessions import build_sessions
from repro.core import (
    Manthan3,
    Manthan3Config,
    Pipeline,
    Status,
    SynthesisContext,
)
from repro.dqbf import check_henkin_vector, skolem_instance
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF


def make_skolem(universals, existentials, clauses):
    return skolem_instance(universals, existentials, CNF(clauses))


class TestEligibility:
    def test_full_dependency_required(self):
        inst = DQBFInstance([1, 2], {3: [1]}, CNF([[3, 1]]))
        tracker = DependencyTracker(inst.existentials)
        assert not can_self_substitute(inst, tracker, 3)

    def test_skolem_variable_eligible(self):
        inst = make_skolem([1, 2], [3], [[3, 1]])
        tracker = DependencyTracker(inst.existentials)
        assert can_self_substitute(inst, tracker, 3)

    def test_cycle_through_tracker_blocks(self):
        inst = make_skolem([1], [2, 3], [[2, 3]])
        tracker = DependencyTracker(inst.existentials)
        tracker.record_use(3, {2})  # y3 depends on y2
        # y2 self-substitution would reference y3 → cycle.
        assert not can_self_substitute(inst, tracker, 2)
        assert can_self_substitute(inst, tracker, 3)


class TestSubstitution:
    def test_produces_correct_local_choice(self):
        # ϕ = (y ↔ (x1 ∧ x2)); self-substituted f = ϕ|_{y=1} = x1∧x2.
        inst = make_skolem([1, 2], [3],
                           [[-3, 1], [-3, 2], [3, -1, -2]])
        tracker = DependencyTracker(inst.existentials)
        candidates = {3: bf.FALSE}
        assert self_substitute(inst, candidates, tracker, 3)
        for b1, b2 in itertools.product([False, True], repeat=2):
            assert candidates[3].evaluate({1: b1, 2: b2}) == (b1 and b2)

    def test_dag_guard(self):
        inst = make_skolem([1, 2], [3],
                           [[-3, 1, 2], [-3, -1, -2],
                            [3, -1, 2], [3, 1, -2]])
        tracker = DependencyTracker(inst.existentials)
        candidates = {3: bf.FALSE}
        assert not self_substitute(inst, candidates, tracker, 3,
                                   max_dag_size=1)
        assert candidates[3] is bf.FALSE  # untouched on failure


class TestEngineIntegration:
    def test_selfsub_configurable(self):
        inst = make_skolem([1, 2], [3],
                           [[-3, 1, 2], [-3, -1, -2],
                            [3, -1, 2], [3, 1, -2]])
        config = Manthan3Config(seed=2, use_self_substitution=True,
                                self_substitution_threshold=0,
                                num_samples=4)
        result = Manthan3(config).run(inst, timeout=30)
        assert result.status == Status.SYNTHESIZED
        assert check_henkin_vector(inst, result.functions).valid

    def test_selfsub_stats_key_present(self):
        inst = make_skolem([1], [2], [[2, 1]])
        result = Manthan3(Manthan3Config(seed=1)).run(inst, timeout=30)
        assert "self_substitutions" in result.stats


class TestFallbackEndToEnd:
    """The Manthan2-style fallback through the verify–repair phase: a
    candidate crossing the repair threshold is self-substituted, retired
    into the non-repairable set, and the order is recomputed."""

    def _context(self, inst, candidates, **config_kwargs):
        config = Manthan3Config(seed=3, **config_kwargs)
        ctx = SynthesisContext(inst, config)
        build_sessions(ctx)
        ctx.candidates = dict(candidates)
        ctx.tracker = DependencyTracker(inst.existentials)
        ctx.tracker.seed_subset_pairs(inst)
        ctx.order = find_order(inst, ctx.tracker)
        return ctx

    def test_threshold_crossing_retires_candidate(self):
        # ϕ = y ↔ (x1 ∨ x2); the deliberately wrong candidate FALSE
        # needs a repair, and threshold 0 turns that first repair into a
        # self-substitution.
        inst = make_skolem([1, 2], [3],
                           [[-3, 1, 2], [3, -1], [3, -2]])
        ctx = self._context(inst, {3: bf.FALSE},
                            self_substitution_threshold=0)
        result = Pipeline(("verify_repair",)).execute(ctx)
        assert result.status == Status.SYNTHESIZED
        assert check_henkin_vector(inst, result.functions).valid
        assert ctx.stats["self_substitutions"] == 1
        assert 3 in ctx.non_repairable
        assert ctx.repair_counts[3] == 1
        # The retiree is the self-substituted ϕ|_{y=1}, kept in sync
        # with the candidate vector.
        assert ctx.non_repairable[3] is ctx.candidates[3]

    def test_retiree_excluded_from_further_repair(self):
        inst = make_skolem([1, 2], [3],
                           [[-3, 1, 2], [3, -1], [3, -2]])
        ctx = self._context(inst, {3: bf.FALSE},
                            self_substitution_threshold=0)
        Pipeline(("verify_repair",)).execute(ctx)
        # Exactly one repair happened: the retirement froze the count.
        assert ctx.repair_counts == {3: 1}

    def test_order_recomputed_on_new_edges(self):
        # ϕ|_{y4=1} mentions y3, so retiring y4 adds the edge y4 → y3
        # and the recomputed order must place y4 before its dependee.
        inst = make_skolem([1], [3, 4], [[4, 3], [1, -3]])
        ctx = self._context(inst, {3: bf.var(1), 4: bf.FALSE})
        ctx.non_repairable = {}
        ctx.repair_counts = {4: ctx.config.self_substitution_threshold + 1}
        assert ctx.order == [3, 4]
        retired = run_self_substitution(ctx)
        assert retired == 1
        assert 4 in ctx.non_repairable
        assert ctx.order == [4, 3]
        assert ctx.order == find_order(inst, ctx.tracker)

    def test_max_dag_refusal_keeps_candidate_repairable(self):
        inst = make_skolem([1, 2], [3],
                           [[-3, 1, 2], [-3, -1, -2],
                            [3, -1, 2], [3, 1, -2]])       # y ↔ (x1 ↔ x2)
        ctx = self._context(inst, {3: bf.FALSE},
                            self_substitution_max_dag=1)
        ctx.non_repairable = {}
        ctx.repair_counts = {3: ctx.config.self_substitution_threshold + 1}
        retired = run_self_substitution(ctx)
        assert retired == 0
        assert ctx.stats.get("self_substitutions", 0) == 0
        assert 3 not in ctx.non_repairable
        assert ctx.candidates[3] is bf.FALSE   # untouched on refusal


class TestFalseFastPath:
    def test_forced_universal_detected(self):
        # (x1) ∧ (x1 ∨ y): UP forces x1 → False with witness x1=0.
        inst = DQBFInstance([1], {2: [1]}, CNF([[1], [1, 2]]))
        result = Manthan3().run(inst, timeout=30)
        assert result.status == Status.FALSE
        assert result.witness == {1: False}

    def test_chained_units_detected(self):
        # (y2) ∧ (¬y2 ∨ x1): UP derives x1 through y2.
        inst = DQBFInstance([1], {2: [1]}, CNF([[2], [-2, 1]]))
        result = Manthan3().run(inst, timeout=30)
        assert result.status == Status.FALSE
        from repro.dqbf import check_false_witness

        assert check_false_witness(inst, result.witness).valid
