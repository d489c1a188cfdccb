"""Tests for the bit-parallel simulation substrate.

The evaluation program is checked bit for bit against the scalar
references: ``BoolExpr.evaluate`` for one expression and
``repro.core.repair.evaluate_vector`` for a composed candidate vector.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.repair import evaluate_vector
from repro.formula import boolfunc as bf
from repro.formula.bitvec import (
    EvalProgram,
    SampleMatrix,
    evaluate_vector_bits,
    refresh_vector_bits,
)
from repro.utils.errors import ReproError

VARS = [1, 2, 3, 4, 5, 6]

#: The output variable a single expression is evaluated into.
OUT = 99

#: Packed widths around the machine-word boundaries, and the
#: simulation width.
WIDTHS = [1, 63, 64, 65, 1024]


def random_expr(rng, variables, depth):
    """A random BoolExpr DAG over ``variables`` (smart-constructed)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.05:
            return bf.const(rng.random() < 0.5)
        leaf = bf.var(rng.choice(variables))
        return bf.not_(leaf) if rng.random() < 0.5 else leaf
    op = rng.choice(["and", "or", "xor", "not"])
    if op == "not":
        return bf.not_(random_expr(rng, variables, depth - 1))
    arity = rng.randint(2, 4)
    children = [random_expr(rng, variables, depth - 1)
                for _ in range(arity)]
    build = {"and": bf.and_, "or": bf.or_, "xor": bf.xor}[op]
    return build(*children)


def random_matrix(rng, variables, rows):
    return SampleMatrix.from_models(
        [{v: rng.random() < 0.5 for v in variables} for _ in range(rows)])


def evaluate_bits(program, expr, matrix):
    """``expr`` on every row of ``matrix``, as a one-output vector."""
    return evaluate_vector_bits(program, {OUT: expr}, [OUT], matrix)[OUT]


def compiled_roots(program):
    """``{y: root}`` for every output the program holds code for."""
    return {y: entry[0] for y, entry in program._roots.items()}


def assert_matches_scalar(bits, candidates, order, matrix):
    """Every row of ``bits`` equals the scalar composition."""
    for i in range(len(matrix)):
        scalar = evaluate_vector(candidates, order, matrix.row(i))
        for y in order:
            assert bool((bits[y] >> i) & 1) == scalar[y], (i, y)
    for y in order:
        assert 0 <= bits[y] <= matrix.mask, y


class TestSampleMatrix:
    def test_from_models_round_trips(self):
        models = [{1: True, 2: False}, {1: False, 2: False},
                  {1: True, 2: True}]
        matrix = SampleMatrix.from_models(models)
        assert len(matrix) == 3
        assert matrix.rows() == models

    def test_column_packing(self):
        matrix = SampleMatrix.from_models(
            [{7: True}, {7: False}, {7: True}])
        assert matrix.column(7) == 0b101

    def test_append_returns_row_index(self):
        matrix = SampleMatrix([1])
        assert matrix.append({1: True}) == 0
        assert matrix.append({1: False}) == 1
        assert matrix.mask == 0b11

    def test_declared_variables_zero_rows(self):
        matrix = SampleMatrix([1, 2])
        assert len(matrix) == 0
        assert matrix.mask == 0
        assert matrix.column(2) == 0

    def test_missing_variable_raises(self):
        matrix = SampleMatrix([1, 2])
        matrix.append({1: True, 2: False})
        with pytest.raises(KeyError):
            matrix.append({1: True})

    def test_row_out_of_range(self):
        matrix = SampleMatrix.from_models([{1: True}])
        with pytest.raises(ReproError):
            matrix.row(1)

    def test_extra_assignment_keys_ignored(self):
        """Counterexample rows may assign more than the matrix tracks."""
        matrix = SampleMatrix([1])
        matrix.append({1: True, 9: False})
        assert matrix.columns == {1: 1}


class TestEvalBitset:
    """One expression, evaluated into a bitset on the program."""

    def test_constants(self):
        matrix = random_matrix(random.Random(0), VARS, 5)
        program = EvalProgram()
        assert evaluate_bits(program, bf.TRUE, matrix) == matrix.mask
        assert evaluate_bits(program, bf.FALSE, matrix) == 0

    def test_single_variable(self):
        matrix = SampleMatrix.from_models(
            [{3: True}, {3: False}, {3: True}])
        program = EvalProgram()
        assert evaluate_bits(program, bf.var(3), matrix) == 0b101
        assert evaluate_bits(program, bf.not_(bf.var(3)), matrix) == 0b010

    def test_empty_matrix(self):
        matrix = SampleMatrix([1])
        program = EvalProgram()
        assert evaluate_bits(program, bf.var(1) | bf.TRUE, matrix) == 0
        assert evaluate_bits(program, bf.not_(bf.var(1)), matrix) == 0

    def test_unswept_variable_is_an_error(self):
        """A read of a variable neither in the matrix nor swept earlier
        fails instead of picking up a stale value."""
        program = EvalProgram()
        matrix = SampleMatrix.from_models([{1: True, 2: True}])
        evaluate_bits(program, bf.and_(bf.var(1), bf.var(2)), matrix)
        narrow = SampleMatrix.from_models([{1: True}])
        with pytest.raises(TypeError):
            evaluate_bits(program, bf.and_(bf.var(1), bf.var(2)), narrow)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_agrees_with_per_assignment_evaluate(self, seed):
        """Property: bit i == evaluate(row i), for random DAGs on random
        matrices, with one program serving every expression."""
        rng = random.Random(seed)
        program = EvalProgram()
        for _ in range(4):
            expr = random_expr(rng, VARS, rng.randint(1, 5))
            matrix = random_matrix(rng, VARS, rng.randint(1, 12))
            bits = evaluate_bits(program, expr, matrix)
            assert 0 <= bits <= matrix.mask
            for i in range(len(matrix)):
                assert bool((bits >> i) & 1) == \
                    expr.evaluate(matrix.row(i)), i

    @pytest.mark.parametrize("width", WIDTHS)
    def test_widths(self, width):
        rng = random.Random(width)
        program = EvalProgram()
        for _ in range(5):
            expr = random_expr(rng, VARS, 5)
            matrix = SampleMatrix.random(VARS, width, rng)
            bits = evaluate_bits(program, expr, matrix)
            assert 0 <= bits <= matrix.mask
            for i in range(width):
                assert bool((bits >> i) & 1) == \
                    expr.evaluate(matrix.row(i)), i


class TestVectorEvaluation:
    def _vector(self, rng):
        """A composed candidate vector y5, y6 over x1..x4 (y5 uses y6)."""
        candidates = {
            5: bf.or_(bf.and_(bf.var(1), bf.var(6)), bf.var(2)),
            6: bf.xor(bf.var(3), bf.var(4)),
        }
        order = [5, 6]  # depender first, as find_order produces
        matrix = random_matrix(rng, [1, 2, 3, 4], rng.randint(1, 10))
        return candidates, order, matrix

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_evaluate_vector_bits_matches_scalar(self, seed):
        rng = random.Random(seed)
        candidates, order, matrix = self._vector(rng)
        bits = evaluate_vector_bits(EvalProgram(), candidates, order, matrix)
        assert_matches_scalar(bits, candidates, order, matrix)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_refresh_vector_bits_matches_full_reevaluation(self, seed):
        rng = random.Random(seed)
        candidates, order, matrix = self._vector(rng)
        program = EvalProgram()
        outputs = evaluate_vector_bits(program, candidates, order, matrix)
        # Repair y5 (the depender): refresh must equal a full sweep.
        candidates[5] = bf.and_(candidates[5], bf.not_(bf.var(2)))
        refreshed = refresh_vector_bits(program, candidates, order,
                                        outputs, matrix, 5)
        assert refreshed == evaluate_vector_bits(EvalProgram(), candidates,
                                                 order, matrix)

    def test_matrix_left_untouched(self):
        rng = random.Random(3)
        candidates, order, matrix = self._vector(rng)
        before = dict(matrix.columns)
        evaluate_vector_bits(EvalProgram(), candidates, order, matrix)
        assert matrix.columns == before
        assert 5 not in matrix.columns


X_VARS = [1, 2, 3, 4, 5]


def random_readers(rng, ys):
    """For each output, the outputs it may read: an acyclic relation."""
    rank = list(ys)
    rng.shuffle(rank)
    return {y: [z for z in rank[rank.index(y) + 1:] if rng.random() < 0.5]
            for y in ys}


def random_order(rng, readers):
    """A random composition order: every output before the outputs it
    may read (depender first, as find_order produces)."""
    ys = set(readers)
    order = []
    while len(order) < len(ys):
        placed = set(order)
        ready = sorted(y for y in ys - placed
                       if all(y not in readers[z] for z in ys - placed))
        order.append(rng.choice(ready))
    return order


def random_vector(rng, num_outputs):
    ys = list(range(10, 10 + num_outputs))
    readers = random_readers(rng, ys)
    candidates = {y: random_expr(rng, X_VARS + readers[y], 4) for y in ys}
    return candidates, readers


def random_beta(rng, pool):
    """A repair formula: a conjunction of literals, as a MaxSAT core
    yields."""
    picks = rng.sample(pool, rng.randint(1, min(3, len(pool))))
    return bf.and_(*[bf.lit(v if rng.random() < 0.5 else -v)
                     for v in picks])


class TestProgramProperties:
    """The program against the scalar composition, over composed
    vectors and append-only repair sequences on one program."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9),
           st.sampled_from(WIDTHS))
    def test_composed_vectors(self, seed, width):
        rng = random.Random(seed)
        candidates, readers = random_vector(rng, rng.randint(1, 5))
        order = random_order(rng, readers)
        matrix = SampleMatrix.random(X_VARS, width, rng)
        bits = evaluate_vector_bits(EvalProgram(), candidates, order, matrix)
        assert_matches_scalar(bits, candidates, order, matrix)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_repair_sequences(self, seed):
        """Random ``f ∧ ¬β`` / ``f ∨ β`` repairs, each followed by a
        refresh from the repaired position; the order changes once
        mid-sequence and the width varies between calls."""
        rng = random.Random(seed)
        candidates, readers = random_vector(rng, rng.randint(2, 5))
        order = random_order(rng, readers)
        program = EvalProgram()
        steps = rng.randint(4, 12)
        for step in range(steps):
            if step == steps // 2:
                order = random_order(rng, readers)
            matrix = SampleMatrix.random(X_VARS, rng.choice(WIDTHS[:4]), rng)
            outputs = evaluate_vector_bits(program, candidates, order, matrix)
            assert_matches_scalar(outputs, candidates, order, matrix)
            yk = rng.choice(order)
            beta = random_beta(rng, X_VARS + readers[yk])
            if rng.random() < 0.5:
                candidates[yk] = bf.and_(candidates[yk], bf.not_(beta))
            else:
                candidates[yk] = bf.or_(candidates[yk], beta)
            refreshed = refresh_vector_bits(program, candidates, order,
                                            outputs, matrix, yk)
            assert_matches_scalar(refreshed, candidates, order, matrix)
        compiled = compiled_roots(program)
        assert set(compiled) <= set(candidates)
        for y, root in compiled.items():
            assert root is candidates[y]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_refresh_from_every_position(self, seed):
        rng = random.Random(seed)
        candidates, readers = random_vector(rng, rng.randint(1, 5))
        order = random_order(rng, readers)
        matrix = SampleMatrix.random(X_VARS, 65, rng)
        program = EvalProgram()
        for yk in order:
            outputs = evaluate_vector_bits(program, candidates, order, matrix)
            candidates[yk] = bf.xor(candidates[yk],
                                    random_beta(rng, X_VARS + readers[yk]))
            refreshed = refresh_vector_bits(program, candidates, order,
                                            outputs, matrix, yk)
            position = order.index(yk)
            for y in order[position + 1:]:
                assert refreshed[y] == outputs[y], y
            assert refreshed == evaluate_vector_bits(
                EvalProgram(), candidates, order, matrix)
            assert_matches_scalar(refreshed, candidates, order, matrix)

    def test_replaced_root_keeps_shared_slots(self):
        """A repaired root compiles only its new nodes; the old root's
        code is dropped."""
        program = EvalProgram()
        f = bf.or_(bf.and_(bf.var(1), bf.var(2)), bf.var(3))
        matrix = SampleMatrix.random([1, 2, 3, 4], 8, random.Random(1))
        evaluate_vector_bits(program, {OUT: f}, [OUT], matrix)
        slots = len(program._values)
        repaired = bf.and_(f, bf.not_(bf.var(4)))
        bits = evaluate_vector_bits(program, {OUT: repaired}, [OUT], matrix)
        # ¬x4 and the new conjunction are the only new nodes.
        assert len(program._values) == slots + 2
        assert compiled_roots(program) == {OUT: repaired}
        assert_matches_scalar(bits, {OUT: repaired}, [OUT], matrix)
