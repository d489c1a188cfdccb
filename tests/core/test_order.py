"""Tests for FindOrder and candidate substitution."""

import pytest

from repro.core.candidates import DependencyTracker
from repro.core.order import (
    find_order,
    ground_vector,
    substitute_candidates,
)
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.utils.errors import SolverError


def make(universals, deps, clauses):
    return DQBFInstance(universals, deps, CNF(clauses))


class TestFindOrder:
    def test_dependers_come_first(self):
        inst = make([1], {3: [1], 4: [1]}, [[3, 4]])
        tracker = DependencyTracker(inst.existentials)
        tracker.record_use(4, {3})  # f4 uses y3
        order = find_order(inst, tracker)
        assert order.index(4) < order.index(3)

    def test_no_edges_keeps_all_nodes(self):
        inst = make([1], {3: [1], 4: [1], 5: [1]}, [[3, 4, 5]])
        tracker = DependencyTracker(inst.existentials)
        assert sorted(find_order(inst, tracker)) == [3, 4, 5]



class TestSubstitution:
    def test_chain_substitution(self):
        inst = make([1, 2], {3: [1], 4: [1, 2]}, [[3, 4]])
        candidates = {3: bf.not_(bf.var(1)),
                      4: bf.and_(bf.var(3), bf.var(2))}
        final = substitute_candidates(inst, candidates, [4, 3])
        assert final[4].support() <= {1, 2}
        assert final[4].evaluate({1: False, 2: True})
        assert not final[4].evaluate({1: True, 2: True})

    def test_escaping_support_raises(self):
        inst = make([1, 2], {3: [1], 4: [1, 2]}, [[3, 4]])
        candidates = {3: bf.var(2),  # illegal: x2 ∉ H3
                      4: bf.var(1)}
        with pytest.raises(SolverError):
            substitute_candidates(inst, candidates, [4, 3])

    def test_deep_chain(self):
        inst = make([1], {3: [1], 4: [1], 5: [1]}, [[3, 4, 5]])
        candidates = {5: bf.var(1),
                      4: bf.not_(bf.var(5)),
                      3: bf.xor(bf.var(4), bf.var(5))}
        final = substitute_candidates(inst, candidates, [3, 4, 5])
        for y in (3, 4, 5):
            assert final[y].support() <= {1}
        # f3 = f4 ⊕ f5 = ¬x1 ⊕ x1 = 1
        assert final[3] is bf.TRUE


class TestGroundVector:
    def test_dag_grounding(self):
        inst = make([1], {3: [1], 4: [1]}, [[3, 4]])
        functions = {3: bf.var(1), 4: bf.not_(bf.var(3))}
        final = ground_vector(inst, functions)
        assert final[4] is bf.not_(bf.var(1))

    def test_cycle_detected(self):
        inst = make([1], {3: [1], 4: [1]}, [[3, 4]])
        functions = {3: bf.var(4), 4: bf.var(3)}
        with pytest.raises(SolverError):
            ground_vector(inst, functions)
