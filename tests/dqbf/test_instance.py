"""Tests for the DQBF instance model."""

import pytest

from repro.dqbf.instance import DQBFInstance, skolem_instance
from repro.formula.cnf import CNF
from repro.utils.errors import ReproError


def make(universals, deps, clauses):
    return DQBFInstance(universals, deps, CNF(clauses))


class TestValidation:
    def test_overlapping_x_and_y_rejected(self):
        with pytest.raises(ReproError):
            make([1, 2], {2: [1]}, [[1, 2]])

    def test_dependency_on_existential_rejected(self):
        with pytest.raises(ReproError):
            make([1], {2: [1], 3: [2]}, [[1]])

    def test_undeclared_matrix_variable_rejected(self):
        with pytest.raises(ReproError):
            make([1], {2: [1]}, [[1, 2, 3]])

    def test_num_vars_raised_to_declared(self):
        cnf = CNF([[1]])
        inst = DQBFInstance([1], {5: [1]}, cnf)
        assert inst.matrix.num_vars >= 5

    def test_duplicate_universals_deduped(self):
        inst = DQBFInstance([1, 1, 2], {3: [1]}, CNF([[3]]))
        assert inst.universals == [1, 2]


class TestViews:
    def test_existentials_preserve_order(self):
        inst = make([1, 2], {4: [1], 3: [2]}, [[3, 4]])
        assert inst.existentials == [4, 3]

    def test_henkin_set(self):
        inst = make([1, 2], {3: [1, 2]}, [[3]])
        assert inst.dependencies[3] == frozenset({1, 2})

    def test_is_skolem(self):
        inst = make([1, 2], {3: [1, 2], 4: [2, 1]}, [[3, 4]])
        assert inst.is_skolem()
        inst2 = make([1, 2], {3: [1], 4: [1, 2]}, [[3, 4]])
        assert not inst2.is_skolem()

    def test_dependency_subset_pairs(self):
        inst = make([1, 2, 3],
                    {4: [1], 5: [1, 2], 6: [2, 3]},
                    [[4, 5, 6]])
        pairs = set(inst.dependency_subset_pairs())
        assert pairs == {(5, 4)}  # H4 ⊂ H5 only

    def test_equal_sets_not_subset_pairs(self):
        inst = make([1], {2: [1], 3: [1]}, [[2, 3]])
        assert list(inst.dependency_subset_pairs()) == []

    def test_stats(self):
        inst = make([1, 2], {3: [1], 4: [1, 2]}, [[3], [4]])
        stats = inst.stats()
        assert stats["universals"] == 2
        assert stats["existentials"] == 2
        assert stats["clauses"] == 2
        assert stats["min_dep"] == 1
        assert stats["max_dep"] == 2

    def test_copy_independent(self):
        inst = make([1], {2: [1]}, [[2]])
        dup = inst.copy()
        dup.matrix.add_clause([1])
        assert len(inst.matrix) == 1


class TestSkolemFactory:
    def test_full_dependencies(self):
        inst = skolem_instance([1, 2], [3, 4], CNF([[3, 4]]))
        assert inst.is_skolem()
        assert inst.dependencies[3] == frozenset({1, 2})
