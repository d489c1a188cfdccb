"""Tests for counterexample-driven repair (Algorithm 3)."""

from repro.core.candidates import DependencyTracker
from repro.core.config import Manthan3Config
from repro.core.repair import (
    evaluate_vector,
    find_repair_candidates,
    repair_iteration,
)
from repro.core.sessions import MatrixSession
from repro.core.verifier import verify_candidates
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.bitvec import EvalProgram, SampleMatrix, \
    refresh_vector_bits
from repro.formula.cnf import CNF


def make(universals, deps, clauses):
    return DQBFInstance(universals, deps, CNF(clauses))


def oracles(inst):
    """The loop state ``repair_iteration`` runs against: a persistent
    ϕ-session, the counterexample matrix and the evaluation program
    (one each per repair loop)."""
    return {"matrix_session": MatrixSession(inst.matrix),
            "cex_matrix": SampleMatrix(inst.universals),
            "program": EvalProgram()}


class TestEvaluateVector:
    def test_composition_respects_order(self):
        candidates = {3: bf.var(4), 4: bf.var(1)}
        outputs = evaluate_vector(candidates, [3, 4], {1: True})
        assert outputs == {3: True, 4: True}

    def test_deep_composition(self):
        candidates = {3: bf.not_(bf.var(4)), 4: bf.not_(bf.var(5)),
                      5: bf.var(1)}
        outputs = evaluate_vector(candidates, [3, 4, 5], {1: False})
        assert outputs == {5: False, 4: True, 3: False}


class TestFindRepairCandidates:
    def test_selects_falsified_soft(self):
        # ϕ = (y ↔ x); X = {x=1}; candidate output y=0 → must repair y.
        inst = make([1], {2: [1]}, [[-2, 1], [2, -1]])
        ind = find_repair_candidates(inst, {1: True}, {2: False}, [2],
                                     MatrixSession(inst.matrix))
        assert ind == [2]

    def test_correct_candidate_not_selected(self):
        inst = make([1], {2: [1]}, [[-2, 1], [2, -1]])
        ind = find_repair_candidates(inst, {1: True}, {2: True}, [2],
                                     MatrixSession(inst.matrix))
        assert ind == []

    def test_minimality(self):
        """MaxSAT keeps the already-correct candidate out of Ind."""
        # ϕ = (y1 ↔ x) ∧ (y2 ↔ x)
        inst = make([1], {2: [1], 3: [1]},
                    [[-2, 1], [2, -1], [-3, 1], [3, -1]])
        ind = find_repair_candidates(inst, {1: True},
                                     {2: True, 3: False}, [2, 3],
                                     MatrixSession(inst.matrix))
        assert ind == [3]


class TestRepairIteration:
    def test_single_repair_fixes_counterexample(self):
        inst = make([1], {2: [1]}, [[-2, 1], [2, -1]])
        candidates = {2: bf.FALSE}
        tracker = DependencyTracker(inst.existentials)
        modified = repair_iteration(inst, candidates, tracker, [2],
                                    {1: True}, Manthan3Config(),
                                    **oracles(inst))
        assert modified == 1
        assert candidates[2].evaluate({1: True})

    def test_repair_reaches_validity(self):
        """Iterating verify+repair must converge on a simple instance."""
        inst = make([1, 2], {3: [1, 2]},
                    [[-3, 1, 2], [3, -1], [3, -2]])  # y ↔ (x1 ∨ x2)
        candidates = {3: bf.FALSE}
        tracker = DependencyTracker(inst.existentials)
        config = Manthan3Config()
        loop = oracles(inst)
        for _ in range(10):
            outcome = verify_candidates(inst, candidates)
            if outcome.verdict == "VALID":
                break
            repair_iteration(inst, candidates, tracker, [3],
                             outcome.sigma_x, config, **loop)
        assert verify_candidates(inst, candidates).verdict == "VALID"

    def test_fixed_candidates_never_touched(self):
        inst = make([1], {2: [1], 3: [1]},
                    [[-2, 1], [2, -1], [3]])
        candidates = {2: bf.FALSE, 3: bf.TRUE}
        tracker = DependencyTracker(inst.existentials)
        before = candidates[3]
        repair_iteration(inst, candidates, tracker, [2, 3], {1: True},
                         Manthan3Config(), fixed={3}, **oracles(inst))
        assert candidates[3] is before

    def test_stagnation_on_limitation_example(
            self, limitation_example_instance):
        """§5: with deliberately wrong candidates, no Gk can repair."""
        inst = limitation_example_instance
        candidates = {4: bf.var(2), 5: bf.not_(bf.var(2))}
        tracker = DependencyTracker(inst.existentials)
        outcome = verify_candidates(inst, candidates)
        assert outcome.verdict == "COUNTEREXAMPLE"
        modified = repair_iteration(inst, candidates, tracker, [4, 5],
                                    outcome.sigma_x, Manthan3Config(),
                                    **oracles(inst))
        assert modified == 0  # the paper's incompleteness case

    def test_yhat_constraint_enables_repair(self):
        """The ϕ = (y1 ↔ x1 ⊕ y2) example of §5: without the Ŷ conjunct
        the core is empty; with it the repair succeeds."""
        # y1 ↔ (x1 ⊕ y2), H1 = H2 = {x1}
        inst = make([1], {2: [1], 3: [1]},
                    [[-2, 1, 3], [-2, -1, -3], [2, -1, 3], [2, 1, -3]])
        # candidates: f_y2(=var2) wrong; f_y3 constant 0.
        candidates = {2: bf.FALSE, 3: bf.FALSE}
        tracker = DependencyTracker(inst.existentials)
        config = Manthan3Config()
        loop = oracles(inst)
        for _ in range(8):
            outcome = verify_candidates(inst, candidates)
            if outcome.verdict == "VALID":
                break
            repair_iteration(inst, candidates, tracker, [2, 3],
                             outcome.sigma_x, config, **loop)
        assert verify_candidates(inst, candidates).verdict == "VALID"


def _bit(bits, row=0):
    return {y: bool((b >> row) & 1) for y, b in bits.items()}


class TestRefreshVector:
    """Repair's partial packed re-evaluation after a single repair must
    agree with the full scalar composition-order re-evaluation."""

    def test_matches_full_reevaluation(self):
        import random

        rng = random.Random(3)
        order = [10, 11, 12, 13]
        x_vars = [1, 2, 3]
        program = EvalProgram()  # one program across every trial
        for trial in range(40):
            # Each candidate may read X and any variable later in order.
            candidates = {}
            for i, y in enumerate(order):
                readable = x_vars + order[i + 1:]
                picks = rng.sample(readable, min(2, len(readable)))
                expr = bf.and_(*[bf.lit(v if rng.random() < 0.5 else -v)
                                 for v in picks])
                candidates[y] = expr if rng.random() < 0.7 else bf.not_(expr)
            sigma_x = {v: rng.random() < 0.5 for v in x_vars}
            matrix = SampleMatrix.from_models([sigma_x])
            outputs = {y: int(value) for y, value in
                       evaluate_vector(candidates, order, sigma_x).items()}
            # Repair an arbitrary candidate, then refresh partially.
            yk = rng.choice(order)
            beta = bf.lit(rng.choice(x_vars))
            candidates[yk] = bf.and_(candidates[yk], bf.not_(beta)) \
                if rng.random() < 0.5 else bf.or_(candidates[yk], beta)
            refreshed = refresh_vector_bits(program, candidates, order,
                                            outputs, matrix, yk)
            assert _bit(refreshed) == \
                evaluate_vector(candidates, order, sigma_x), trial

    def test_only_prefix_reevaluated(self):
        """Positions after yk keep their bitsets untouched."""
        candidates = {5: bf.var(6), 6: bf.var(1), 7: bf.not_(bf.var(1))}
        order = [5, 6, 7]
        matrix = SampleMatrix.from_models([{1: True}])
        # A planted (wrong) bitset after yk proves it is not re-swept.
        outputs = {5: 1, 6: 1, 7: 1}
        candidates[6] = bf.not_(bf.var(1))
        refreshed = refresh_vector_bits(EvalProgram(), candidates, order,
                                        outputs, matrix, 6)
        assert refreshed[7] == 1                   # after yk: untouched
        assert refreshed[6] == 0                   # yk recomputed
        assert refreshed[5] == 0                   # before yk: recomputed
