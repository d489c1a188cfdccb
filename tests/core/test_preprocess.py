"""Tests for unate detection and unique-function preprocessing."""

from repro.benchgen.pec import generate_defined_pec_instance
from repro.core import Manthan3
from repro.core.config import Manthan3Config
from repro.core.order import ground_vector
from repro.core.preprocess import detect_unates, extract_unique_functions, \
    preprocess
from repro.core.result import Status
from repro.dqbf.certificates import check_henkin_vector
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF


def make(universals, deps, clauses):
    return DQBFInstance(universals, deps, CNF(clauses))


class TestUnates:
    def test_positive_unate(self):
        # ϕ = (x ∨ y): y appears only positively ⇒ f_y = 1 works.
        inst = make([1], {2: [1]}, [[1, 2]])
        unates = detect_unates(inst)
        assert unates == {2: bf.TRUE}

    def test_negative_unate(self):
        inst = make([1], {2: [1]}, [[1, -2]])
        unates = detect_unates(inst)
        assert unates == {2: bf.FALSE}

    def test_non_unate(self):
        # y ↔ x is neither positive nor negative unate.
        inst = make([1], {2: [1]}, [[-2, 1], [2, -1]])
        assert detect_unates(inst) == {}

    def test_sequential_propagation(self):
        """y2 is positive unate outright; y3 only becomes unate once the
        unit for y2 is committed to the working matrix."""
        inst = make([1], {2: [1], 3: [1]},
                    [[1, 2], [2, -3], [3, 1]])
        unates = detect_unates(inst)
        assert unates.get(2) is bf.TRUE
        assert unates.get(3) is bf.TRUE


class TestUniqueExtraction:
    def test_gate_within_dependencies(self):
        inst = make([1, 2], {3: [1, 2]},
                    [[-3, 1], [-3, 2], [3, -1, -2]])
        fixed, stats = extract_unique_functions(inst)
        assert 3 in fixed
        assert stats["gates"] == 1
        assert fixed[3].evaluate({1: True, 2: True})

    def test_gate_outside_dependencies_rejected(self):
        inst = make([1, 2], {3: [1]},
                    [[-3, 1], [-3, 2], [3, -1, -2]])
        fixed, _ = extract_unique_functions(inst)
        assert 3 not in fixed

    def test_gate_dag_through_other_existential(self):
        """aux ↔ (x1 ∧ y); H_aux = X ⊇ H_y: accepted as a candidate."""
        inst = make([1, 2], {3: [1], 4: [1, 2]},
                    [[-4, 1], [-4, 3], [4, -1, -3]])
        fixed, _ = extract_unique_functions(inst)
        assert 4 in fixed
        assert 3 in fixed[4].support()

    def test_padoa_fallback(self):
        # definition present semantically but not as a clean gate pattern
        inst = make([1], {2: [1]}, [[-2, 1], [2, -1], [1, -1, 2]])
        fixed, stats = extract_unique_functions(inst)
        assert 2 in fixed
        assert fixed[2].evaluate({1: True})
        assert not fixed[2].evaluate({1: False})

    def test_table_bit_cap(self):
        xs = list(range(1, 12))
        deps = {12: xs}
        clauses = [[-12] + xs, [12, -1]]
        inst = make(xs, deps, clauses)
        fixed, _ = extract_unique_functions(inst, max_table_bits=4)
        # gate detection may still catch it; padoa tabulation must not.
        if 12 in fixed:
            assert fixed[12].support() <= set(xs)


class TestGroundedSupport:
    """A definition may read an existential whose declared dependency set
    is wider than ``H_y`` when the function it grounds to is not."""

    def test_auxiliary_with_narrow_grounded_support_accepted(self):
        # y4 ↔ a5, a5 ↔ (x1 ∧ x2); H_a = X, H_y = {x1, x2}.
        inst = make([1, 2, 3], {4: [1, 2], 5: [1, 2, 3]},
                    [[-4, 5], [4, -5], [-5, 1], [-5, 2], [5, -1, -2]])
        fixed, stats = extract_unique_functions(inst)
        assert set(fixed) == {4, 5} and stats["gates"] == 2
        grounded = ground_vector(inst, fixed)
        assert grounded[4].support() <= inst.dependencies[4]
        assert check_henkin_vector(inst, grounded).valid

    def test_auxiliary_reading_outside_h_y_rejected(self):
        # a5 ↔ (x1 ∧ x3) reads x3 ∉ H_y: y4 ↔ a5 must not be accepted.
        inst = make([1, 2, 3], {4: [1, 2], 5: [1, 2, 3]},
                    [[-4, 5], [4, -5], [-5, 1], [-5, 3], [5, -1, -3]])
        fixed, _ = extract_unique_functions(inst)
        assert 5 in fixed
        assert 4 not in fixed

    def test_two_level_auxiliary_chain_accepted(self):
        # y5 ↔ b7, b7 ↔ (a6 ∨ x3), a6 ↔ (x1 ∧ x2); H_a = H_b = X.
        inst = make([1, 2, 3, 4],
                    {5: [1, 2, 3], 6: [1, 2, 3, 4], 7: [1, 2, 3, 4]},
                    [[-5, 7], [5, -7],
                     [7, -6], [7, -3], [-7, 6, 3],
                     [-6, 1], [-6, 2], [6, -1, -2]])
        fixed, stats = extract_unique_functions(inst)
        assert set(fixed) == {5, 6, 7}
        assert stats == {"gates": 3, "padoa": 0}
        grounded = ground_vector(inst, fixed)
        assert grounded[5].support() == {1, 2, 3}
        assert check_henkin_vector(inst, grounded).valid

    def test_box_width_costs_no_repair(self):
        """A 16-bit dpec box grounds to its golden circuit: no table,
        no repair."""
        inst = generate_defined_pec_instance(num_inputs=24,
                                             support_width=16, seed=7)
        result = Manthan3(Manthan3Config(seed=0)).run(inst)
        assert result.status == Status.SYNTHESIZED
        assert result.stats["repair_iterations"] == 0
        assert check_henkin_vector(inst, result.functions).valid


class TestPreprocessFacade:
    def test_flags_disable_passes(self):
        inst = make([1], {2: [1]}, [[1, 2]])
        config = Manthan3Config(use_unate_detection=False,
                                use_unique_extraction=False)
        outcome = preprocess(inst, config)
        assert outcome.fixed == {}

    def test_stats_reported(self):
        inst = make([1], {2: [1]}, [[1, 2]])
        outcome = preprocess(inst, Manthan3Config())
        assert outcome.stats["unates"] == 1
