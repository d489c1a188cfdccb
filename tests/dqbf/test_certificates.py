"""Tests for the independent certificate checker."""

from repro.dqbf.certificates import check_henkin_vector, \
    encode_verification_formula
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.sat.solver import Solver, SAT


def xy_instance():
    """∀x1 x2 ∃^{x1}y. (y ↔ x1)."""
    cnf = CNF([[3, -1], [-3, 1]])
    return DQBFInstance([1, 2], {3: [1]}, cnf)


class TestChecker:
    def test_valid_vector_accepted(self):
        inst = xy_instance()
        result = check_henkin_vector(inst, {3: bf.var(1)})
        assert result.valid

    def test_wrong_function_rejected_with_counterexample(self):
        inst = xy_instance()
        result = check_henkin_vector(inst, {3: bf.not_(bf.var(1))})
        assert not result.valid
        assert result.counterexample is not None
        assert set(result.counterexample) == {1, 2}

    def test_dependency_violation_rejected(self):
        inst = xy_instance()
        # x2 ∉ H_y even though the function would be semantically fine
        result = check_henkin_vector(
            inst, {3: bf.or_(bf.var(1), bf.and_(bf.var(2),
                                                bf.not_(bf.var(2))))})
        # simplifier folds x2 away, so craft a genuine violation:
        result = check_henkin_vector(inst, {3: bf.xor(bf.var(1),
                                                      bf.var(2))})
        assert not result.valid
        assert "dependency" in result.reason

    def test_missing_function_rejected(self):
        inst = xy_instance()
        result = check_henkin_vector(inst, {})
        assert not result.valid
        assert "missing" in result.reason

    def test_constant_functions(self):
        cnf = CNF([[2, 1]])  # x ∨ y
        inst = DQBFInstance([1], {2: []}, cnf)
        assert not check_henkin_vector(inst, {2: bf.FALSE}).valid
        assert check_henkin_vector(inst, {2: bf.TRUE}).valid

    def test_bool_conversion(self):
        inst = xy_instance()
        assert bool(check_henkin_vector(inst, {3: bf.var(1)}))


class TestEncodeVerification:
    def test_formula_sat_iff_functions_wrong(self):
        inst = xy_instance()
        cnf, _ = encode_verification_formula(inst, {3: bf.var(1)})
        assert Solver(cnf).solve() != SAT
        cnf2, _ = encode_verification_formula(inst, {3: bf.TRUE})
        assert Solver(cnf2).solve() == SAT


class TestCounterexampleExpansion:
    def test_components(self):
        inst = xy_instance()
        functions = {3: bf.TRUE}
        cnf, _ = encode_verification_formula(inst, functions)
        solver = Solver(cnf)
        assert solver.solve() == SAT
        model = solver.model
        assert {1, 2} <= set(model)
        assert functions[3].evaluate(model) is True
        assert model[1] is False  # y=1 only violates ϕ when x1=0
