"""Tests for XOR (parity) constraint encoding."""

import itertools

from repro.formula.cnf import CNF
from repro.sampling.xor import add_parity_constraint
from repro.sat.solver import Solver, solve_cnf, SAT, UNSAT


def _assert_parity(cnf, variables, parity):
    """For every assignment α of ``variables``: α extends to a model of
    ``cnf`` iff XOR(α) equals ``parity``."""
    solver = Solver(cnf)
    for bits in itertools.product([False, True], repeat=len(variables)):
        assumptions = [v if b else -v for v, b in zip(variables, bits)]
        assert (solver.solve(assumptions=assumptions) == SAT) == \
            (sum(bits) % 2 == parity), bits


class TestParityConstraint:
    def test_single_variable(self):
        cnf = CNF(num_vars=1)
        add_parity_constraint(cnf, [1], True)
        status, model = solve_cnf(cnf)
        assert status == SAT and model[1] is True

    def test_even_parity_two_vars(self):
        cnf = CNF(num_vars=2)
        add_parity_constraint(cnf, [1, 2], False)
        _assert_parity(cnf, [1, 2], 0)

    def test_odd_parity_three_vars(self):
        cnf = CNF(num_vars=3)
        add_parity_constraint(cnf, [1, 2, 3], True)
        _assert_parity(cnf, [1, 2, 3], 1)

    def test_empty_even_is_noop(self):
        cnf = CNF(num_vars=2)
        add_parity_constraint(cnf, [], False)
        assert len(cnf) == 0 and cnf.num_vars == 2

    def test_empty_odd_is_contradiction(self):
        cnf = CNF(num_vars=1)
        add_parity_constraint(cnf, [], True)
        assert solve_cnf(cnf)[0] == UNSAT
