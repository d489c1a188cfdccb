"""Tests for unit propagation."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.formula.simplify import propagate_units


class TestUnitPropagation:
    def test_chains(self):
        clauses = [(1,), (-1, 2), (-2, 3)]
        out, conflict = propagate_units(clauses, assignment := {})
        assert not conflict
        assert assignment == {1: True, 2: True, 3: True}
        assert out == []

    def test_conflict(self):
        clauses = [(1,), (-1,)]
        _, conflict = propagate_units(clauses, {})
        assert conflict

    def test_conflict_via_empty_clause(self):
        clauses = [(1,), (2,), (-1, -2)]
        _, conflict = propagate_units(clauses, {})
        assert conflict

    def test_reduces_clauses(self):
        clauses = [(1,), (-1, 2, 3)]
        out, conflict = propagate_units(clauses, a := {})
        assert not conflict
        assert out == [(2, 3)]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-5, max_value=5)
                         .filter(lambda l: l != 0),
                         min_size=1, max_size=3),
                min_size=1, max_size=12))
def test_simplify_preserves_satisfiability(clauses):
    """Property: the reduced clauses under the forced units are
    satisfiable iff the input is, and a conflict means it is not."""
    assignment = {}
    reduced, conflict = propagate_units([tuple(c) for c in clauses],
                                        assignment)

    def satisfiable(formula, forced):
        for bits in itertools.product([False, True], repeat=5):
            a = {i + 1: bits[i] for i in range(5)}
            if any(a[v] != val for v, val in forced.items()):
                continue
            if all(any(a[abs(l)] == (l > 0) for l in c) for c in formula):
                return True
        return False

    original = satisfiable(clauses, {})
    if conflict:
        assert not original
    else:
        assert satisfiable(reduced, assignment) == original
