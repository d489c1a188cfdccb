"""Tests for the CNF container."""

import pytest
from hypothesis import given, strategies as st

from repro.formula.cnf import CNF, lit_sign, lit_var, neg
from repro.utils.errors import ReproError


class TestLiteralHelpers:
    def test_lit_var(self):
        assert lit_var(7) == 7
        assert lit_var(-7) == 7

    def test_lit_sign(self):
        assert lit_sign(3) is True
        assert lit_sign(-3) is False

    def test_neg(self):
        assert neg(4) == -4
        assert neg(-4) == 4

class TestConstruction:
    def test_add_clause_raises_on_zero(self):
        with pytest.raises(ReproError):
            CNF().add_clause([1, 0])

    def test_num_vars_watermark_raises(self):
        cnf = CNF()
        cnf.add_clause([5, -9])
        assert cnf.num_vars == 9

    def test_explicit_watermark_kept(self):
        cnf = CNF(num_vars=20)
        cnf.add_clause([1])
        assert cnf.num_vars == 20

    def test_fresh_var(self):
        cnf = CNF(num_vars=3)
        assert cnf.fresh_var() == 4
        assert cnf.num_vars == 4

    def test_extend_vars(self):
        cnf = CNF(num_vars=2)
        assert cnf.extend_vars(3) == [3, 4, 5]

    def test_copy_is_independent(self):
        cnf = CNF([[1, 2]])
        dup = cnf.copy()
        dup.add_clause([3])
        assert len(cnf) == 1
        assert len(dup) == 2

    def test_add_unit(self):
        cnf = CNF()
        cnf.add_unit(-4)
        assert cnf.clauses == [(-4,)]


class TestEvaluation:
    def test_evaluate_true(self):
        cnf = CNF([[1, 2], [-1, 3]])
        assert cnf.evaluate({1: True, 2: False, 3: True})

    def test_evaluate_false(self):
        cnf = CNF([[1, 2]])
        assert not cnf.evaluate({1: False, 2: False})

    def test_evaluate_partial_none(self):
        cnf = CNF([[1, 2]])
        assert cnf.evaluate_partial({1: False}) is None

    def test_evaluate_partial_false(self):
        cnf = CNF([[1, 2]])
        assert cnf.evaluate_partial({1: False, 2: False}) is False

    def test_evaluate_partial_true_with_gaps(self):
        cnf = CNF([[1, 2]])
        assert cnf.evaluate_partial({1: True}) is True


class TestSimplified:
    def test_drops_satisfied_clauses(self):
        cnf = CNF([[1, 2], [3]])
        out = cnf.simplified({1: True})
        assert out.clauses == [(3,)]

    def test_removes_falsified_literals(self):
        cnf = CNF([[1, 2]])
        out = cnf.simplified({1: False})
        assert out.clauses == [(2,)]

    def test_empty_clause_signals_conflict(self):
        cnf = CNF([[1]])
        out = cnf.simplified({1: False})
        assert out.clauses == [()]

    def test_removes_tautologies(self):
        cnf = CNF()
        cnf.clauses.append((1, -1))
        out = cnf.simplified()
        assert out.clauses == []

    def test_merges_duplicate_literals(self):
        cnf = CNF([[1, 1, 2]])
        out = cnf.simplified()
        assert out.clauses == [(1, 2)]


class TestRelabeled:
    def test_polarity_preserved(self):
        cnf = CNF([[1, -2]])
        out = cnf.relabeled({1: 5, 2: 6})
        assert out.clauses == [(5, -6)]

    def test_unmapped_vars_kept(self):
        cnf = CNF([[1, 3]])
        out = cnf.relabeled({1: 9})
        assert out.clauses == [(9, 3)]


class TestDimacs:
    def test_roundtrippable_text(self):
        cnf = CNF([[1, -2], [2, 3]])
        text = cnf.to_dimacs()
        assert text.startswith("p cnf 3 2")
        assert "1 -2 0" in text

    def test_repr(self):
        assert "vars=3" in repr(CNF([[1, 2, 3]]))


@given(st.lists(st.lists(st.integers(min_value=-6, max_value=6)
                         .filter(lambda l: l != 0),
                         min_size=1, max_size=4),
                min_size=1, max_size=10),
       st.lists(st.booleans(), min_size=6, max_size=6))
def test_simplified_preserves_semantics(clauses, bits):
    """Property: simplification never changes the truth value."""
    cnf = CNF(clauses, num_vars=6)
    assignment = {i + 1: bits[i] for i in range(6)}
    simplified = cnf.simplified()
    original = cnf.evaluate(assignment)
    # simplified() may contain empty clauses only if original had none
    # satisfiable under every assignment; evaluate handles () as False.
    reduced = all(
        any(assignment[abs(l)] == (l > 0) for l in clause)
        for clause in simplified.clauses)
    assert reduced == original
