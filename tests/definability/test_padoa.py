"""Tests for Padoa's method and truth-table definition extraction."""

import itertools

from repro.definability.padoa import (
    extract_definition,
    is_uniquely_defined,
)
from repro.formula.cnf import CNF


class TestUniqueDefinability:
    def test_defined_variable(self):
        # y3 ↔ (1 ∧ 2): defined by {1, 2}
        cnf = CNF([[-3, 1], [-3, 2], [3, -1, -2]])
        assert is_uniquely_defined(cnf, 3, [1, 2]) is True

    def test_not_defined_by_subset(self):
        cnf = CNF([[-3, 1], [-3, 2], [3, -1, -2]])
        assert is_uniquely_defined(cnf, 3, [1]) is False

    def test_unconstrained_variable(self):
        cnf = CNF([[1, 2]], num_vars=3)
        assert is_uniquely_defined(cnf, 3, [1, 2]) is False

    def test_defined_through_chain(self):
        # 3 ↔ 1, 4 ↔ 3: y4 is defined by {1} transitively.
        cnf = CNF([[-3, 1], [3, -1], [-4, 3], [4, -3]])
        assert is_uniquely_defined(cnf, 4, [1]) is True

    def test_xor_defined(self):
        cnf = CNF([[-3, 1, 2], [-3, -1, -2], [3, -1, 2], [3, 1, -2]])
        assert is_uniquely_defined(cnf, 3, [1, 2]) is True


class TestExtraction:
    def _check_definition(self, cnf, y, deps, reference):
        expr = extract_definition(cnf, y, deps)
        for bits in itertools.product([False, True], repeat=len(deps)):
            env = dict(zip(deps, bits))
            assert expr.evaluate(env) == reference(env), env

    def test_extract_and(self):
        cnf = CNF([[-3, 1], [-3, 2], [3, -1, -2]])
        self._check_definition(cnf, 3, [1, 2],
                               lambda e: e[1] and e[2])

    def test_extract_xor(self):
        cnf = CNF([[-3, 1, 2], [-3, -1, -2], [3, -1, 2], [3, 1, -2]])
        self._check_definition(cnf, 3, [1, 2],
                               lambda e: e[1] != e[2])

    def test_extract_constant(self):
        cnf = CNF([[3]], num_vars=3)
        expr = extract_definition(cnf, 3, [1])
        assert expr.evaluate({1: False}) and expr.evaluate({1: True})

    def test_size_cap_returns_none(self):
        cnf = CNF([[3]], num_vars=20)
        deps = list(range(1, 15))
        assert extract_definition(cnf, 3, deps, max_table_bits=8) is None

    def test_unsat_rows_default_false(self):
        # ϕ forces x1 true; the x1=0 row is a don't-care mapped to 0.
        cnf = CNF([[1], [-3, 1], [3, -1]])
        expr = extract_definition(cnf, 3, [1])
        assert expr.evaluate({1: True})
        assert not expr.evaluate({1: False})
