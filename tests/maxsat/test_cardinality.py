"""Tests for cardinality encodings via exhaustive model checks."""

import itertools

from repro.formula.cnf import CNF
from repro.maxsat.cardinality import (
    encode_at_most_k,
    encode_exactly_one,
)
from repro.sat.solver import Solver, SAT, UNSAT


def _models_over(cnf, variables):
    """Assignments over ``variables`` extendable to a model of ``cnf``."""
    out = []
    for bits in itertools.product([False, True], repeat=len(variables)):
        solver = Solver(cnf)
        assumptions = [v if b else -v for v, b in zip(variables, bits)]
        if solver.solve(assumptions=assumptions) == SAT:
            out.append(bits)
    return out


class TestAtMostK:
    def test_semantics_exhaustively(self):
        for n in (1, 2, 3, 4):
            for k in range(0, n + 1):
                cnf = CNF(num_vars=n)
                lits = list(range(1, n + 1))
                encode_at_most_k(cnf, lits, k)
                for bits in _models_over(cnf, lits):
                    assert sum(bits) <= k, (n, k, bits)
                # every ≤k assignment must remain possible
                allowed = [b for b in
                           itertools.product([False, True], repeat=n)
                           if sum(b) <= k]
                assert len(_models_over(cnf, lits)) == len(allowed)

    def test_k_zero_forces_all_false(self):
        cnf = CNF(num_vars=3)
        encode_at_most_k(cnf, [1, 2, 3], 0)
        solver = Solver(cnf)
        assert solver.solve(assumptions=[1]) == UNSAT

    def test_k_at_least_n_is_noop(self):
        cnf = CNF(num_vars=2)
        encode_at_most_k(cnf, [1, 2], 5)
        assert len(cnf) == 0

    def test_negative_literals(self):
        cnf = CNF(num_vars=2)
        encode_at_most_k(cnf, [-1, -2], 1)
        solver = Solver(cnf)
        assert solver.solve(assumptions=[-1, -2]) == UNSAT
        assert solver.solve(assumptions=[-1, 2]) == SAT


class TestExactlyOne:
    def test_semantics(self):
        cnf = CNF(num_vars=3)
        encode_exactly_one(cnf, [1, 2, 3])
        models = _models_over(cnf, [1, 2, 3])
        assert sorted(models) == sorted([
            (True, False, False), (False, True, False),
            (False, False, True)])
