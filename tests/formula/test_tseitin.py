"""Tests for Tseitin encoding: CNF must be equisatisfiable and the
output literal equivalent to the expression on the original variables."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.formula.tseitin import TseitinEncoder, expr_to_cnf, \
    negated_cnf_expr
from repro.sat.solver import Solver, SAT, UNSAT

from tests.conftest import brute_force_models


def _assignments(variables):
    """Every assignment of ``variables`` as ``(dict, assumptions)``."""
    for bits in itertools.product([False, True], repeat=len(variables)):
        yield (dict(zip(variables, bits)),
               [v if b else -v for v, b in zip(variables, bits)])


def _assert_encoding_correct(expr, num_base_vars):
    """For every base assignment α: α ∧ out is SAT iff expr(α), and
    α ∧ ¬out is SAT iff ¬expr(α) — so out ↔ expr in every model."""
    cnf, out = expr_to_cnf(expr, num_vars=num_base_vars)
    solver = Solver(cnf)
    for alpha, assumptions in _assignments(range(1, num_base_vars + 1)):
        want = expr.evaluate(alpha)
        assert (solver.solve(assumptions=assumptions + [out]) == SAT) \
            == want, (expr, alpha)
        assert (solver.solve(assumptions=assumptions + [-out]) == SAT) \
            != want, (expr, alpha)


class TestEncoder:
    def test_and_gate(self):
        _assert_encoding_correct(bf.and_(bf.var(1), bf.var(2)), 2)

    def test_or_gate(self):
        _assert_encoding_correct(bf.or_(bf.var(1), bf.not_(bf.var(2))), 2)

    def test_xor_gate(self):
        _assert_encoding_correct(bf.xor(bf.var(1), bf.var(2)), 2)

    def test_nary_xor_chain(self):
        _assert_encoding_correct(
            bf.xor(bf.var(1), bf.var(2), bf.var(3)), 3)

    def test_nested(self):
        expr = bf.or_(bf.and_(bf.var(1), bf.var(2)),
                      bf.xor(bf.var(2), bf.var(3)))
        _assert_encoding_correct(expr, 3)

    def test_constant_true(self):
        cnf, out = expr_to_cnf(bf.TRUE, num_vars=0)
        solver = Solver(cnf)
        assert solver.solve(assumptions=[out]) == SAT
        assert solver.solve(assumptions=[-out]) == UNSAT

    def test_shared_nodes_encoded_once(self):
        cnf = CNF(num_vars=2)
        enc = TseitinEncoder(cnf)
        shared = bf.and_(bf.var(1), bf.var(2))
        first = enc.encode(shared)
        before = len(cnf)
        second = enc.encode(bf.or_(shared, bf.var(1)))
        assert enc.encode(shared) == first
        assert len(cnf) > before  # or-gate clauses added
        assert second != first

    def test_assert_expr_forces_truth(self):
        cnf = CNF(num_vars=2)
        enc = TseitinEncoder(cnf)
        enc.assert_expr(bf.and_(bf.var(1), bf.not_(bf.var(2))))
        solver = Solver(cnf)
        assert solver.solve() == SAT
        assert solver.model[1] is True
        assert solver.model[2] is False

    def test_assert_iff(self):
        cnf = CNF(num_vars=3)
        enc = TseitinEncoder(cnf)
        enc.assert_iff(3, bf.and_(bf.var(1), bf.var(2)))
        solver = Solver(cnf)
        for alpha, assumptions in _assignments([1, 2, 3]):
            assert (solver.solve(assumptions=assumptions) == SAT) == \
                (alpha[3] == (alpha[1] and alpha[2])), alpha


class TestNegatedCnfExpr:
    def test_negation_semantics(self):
        cnf = CNF([[1, 2], [-1, 3]])
        neg = negated_cnf_expr(cnf)
        for model in brute_force_models(cnf.copy()):
            assert neg.evaluate(model) == (not cnf.evaluate(model))
        # and on non-models:
        assert neg.evaluate({1: False, 2: False, 3: False})

    def test_empty_clause_yields_true(self):
        cnf = CNF()
        cnf.clauses.append(())
        assert negated_cnf_expr(cnf).is_true()


@st.composite
def small_exprs(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return bf.var(draw(st.integers(min_value=1, max_value=4)))
    op = draw(st.sampled_from(["and", "or", "xor", "not"]))
    if op == "not":
        return bf.not_(draw(small_exprs(depth=depth - 1)))
    args = [draw(small_exprs(depth=depth - 1)) for _ in
            range(draw(st.integers(min_value=2, max_value=3)))]
    return {"and": bf.and_, "or": bf.or_, "xor": bf.xor}[op](*args)


@settings(max_examples=40, deadline=None)
@given(small_exprs())
def test_tseitin_equivalence_property(expr):
    """Property: the Tseitin output literal tracks the expression on
    every assignment of the base variables."""
    _assert_encoding_correct(expr, 4)


class TestIncrementalMemo:
    """The encoder's id-keyed cache is structural (expressions are
    hash-consed): a session that keeps one encoder alive re-encodes only
    nodes it has never seen."""

    def test_repaired_candidate_reencodes_only_beta(self):
        cnf = CNF(num_vars=4)
        enc = TseitinEncoder(cnf)
        f = bf.and_(bf.var(1), bf.or_(bf.var(2), bf.var(3)))
        enc.encode(f)
        clauses_before = len(cnf)
        misses_before = enc.misses
        beta = bf.and_(bf.lit(2), bf.lit(-4))
        repaired = bf.and_(f, bf.not_(beta))     # the repair shape f ∧ ¬β
        enc.encode(repaired)
        # only β's nodes (plus the new flattened top AND) need defining
        # clauses — f's subtree is fully reused
        assert enc.misses - misses_before <= 5
        assert enc.hits > 0
        assert len(cnf) > clauses_before

    def test_structurally_identical_rebuild_reuses(self):
        cnf = CNF(num_vars=3)
        enc = TseitinEncoder(cnf)
        first = enc.encode(bf.or_(bf.var(1), bf.and_(bf.var(2), bf.var(3))))
        clauses = len(cnf)
        again = enc.encode(bf.or_(bf.var(1), bf.and_(bf.var(2), bf.var(3))))
        assert again == first
        assert len(cnf) == clauses  # nothing re-encoded

    def test_counters_start_at_zero(self):
        enc = TseitinEncoder(CNF())
        assert (enc.hits, enc.misses) == (0, 0)


class TestSolverSink:
    def test_encoding_into_live_solver_matches_cnf_path(self):
        from repro.formula.tseitin import SolverSink

        expr = bf.or_(bf.and_(bf.var(1), bf.not_(bf.var(2))),
                      bf.xor(bf.var(2), bf.var(3)))
        cnf, out_cnf = expr_to_cnf(expr, num_vars=3)
        solver = Solver()
        solver.ensure_vars(3)
        enc = TseitinEncoder(SolverSink(solver))
        out_live = enc.encode(expr)
        cnf_solver = Solver(cnf)
        for alpha, assumptions in _assignments([1, 2, 3]):
            want = SAT if expr.evaluate(alpha) else UNSAT
            assert solver.solve(assumptions=assumptions + [out_live]) == want
            assert cnf_solver.solve(assumptions=assumptions + [out_cnf]) \
                == want

    def test_group_routing(self):
        from repro.formula.tseitin import SolverSink

        solver = Solver()
        solver.ensure_vars(2)
        group = solver.new_group()
        enc = TseitinEncoder(SolverSink(solver, group=group))
        out = enc.encode(bf.and_(bf.var(1), bf.var(2)))
        solver.add_clause((out,), group=group)
        assert solver.solve(assumptions=[-1]) == UNSAT
        solver.release_group(group)
        assert solver.solve(assumptions=[-1]) == SAT
