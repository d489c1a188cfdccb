"""Clause-wise decisions of ``¬ϕ``: the session E-check and the session
unate check, against the monolithic references.

The sessions never encode ``¬ϕ``.  The E-check asks, clause by clause,
for a model of ``¬c ∧ (Y' ↔ f)``; the unate check asks, for each clause
``c ∋ ℓ``, for a model of ``ϕw ∧ ℓ ∧ ¬(c∖ℓ)``.  These tests pin both to
the references that still encode ``¬ϕ`` whole
(:func:`~repro.core.verifier.build_verification_cnf` and
:func:`~repro.core.preprocess._is_unate`) over random small instances,
and pin the budget rule: ``VALID`` only when every clause query
answered UNSAT.
"""

import random

import pytest

from repro.core import Manthan3Config, Pipeline, Status, SynthesisContext
from repro.core.preprocess import _is_unate, detect_unates
from repro.core.repair import evaluate_vector
from repro.core.sessions import MatrixSession, VerifierSession, \
    build_sessions
from repro.core.verifier import build_verification_cnf, verify_candidates
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.sat.faults import PLAN_ENV
from repro.sat.solver import SAT, UNSAT, Solver
from repro.utils.errors import ResourceBudgetExceeded

BATCHES = 10
PER_BATCH = 30          # 300 random instances in all


def make(universals, deps, clauses):
    return DQBFInstance(universals, deps, CNF(clauses))


def random_instance(rng):
    """|X| ≤ 4, |Y| ≤ 3, up to 9 clauses of width 1–3.  Literals are
    drawn with replacement, so duplicate literals and tautologies
    occur."""
    nx, ny = rng.randint(1, 4), rng.randint(1, 3)
    universals = list(range(1, nx + 1))
    existentials = list(range(nx + 1, nx + ny + 1))
    deps = {y: rng.sample(universals, rng.randint(0, nx))
            for y in existentials}
    variables = universals + existentials
    clauses = [[rng.choice(variables) * rng.choice((1, -1))
                for _ in range(rng.randint(1, 3))]
               for _ in range(rng.randint(1, 9))]
    return make(universals, deps, clauses)


def random_expr(rng, inputs, depth=2):
    if depth == 0 or not inputs or rng.random() < 0.3:
        if not inputs or rng.random() < 0.15:
            return bf.const(rng.random() < 0.5)
        return bf.lit(rng.choice(inputs) * rng.choice((1, -1)))
    op = rng.choice((bf.and_, bf.or_, bf.xor))
    return op(*[random_expr(rng, inputs, depth - 1)
                for _ in range(rng.randint(2, 3))])


def random_vector(rng, inst):
    """A candidate vector and its composition order: ``order[i]`` may
    read its dependency set and every output after it in ``order``."""
    order = list(inst.existentials)
    rng.shuffle(order)
    candidates = {}
    for i, y in enumerate(order):
        inputs = sorted(inst.dependencies[y]) + order[i + 1:]
        candidates[y] = random_expr(rng, inputs)
    return candidates, order


def falsifies(model, clause):
    return all(model[abs(l)] != (l > 0) for l in clause)


class TestClausewiseECheck:
    @pytest.mark.parametrize("batch", range(BATCHES))
    def test_agrees_with_monolithic_e(self, batch):
        rng = random.Random(batch)
        composed = sat_models = 0
        for _ in range(PER_BATCH):
            inst = random_instance(rng)
            session = VerifierSession(inst, rng=batch)
            for _ in range(3):      # one session, re-linked per vector
                candidates, order = random_vector(rng, inst)
                composed += any(
                    candidates[y].support() - inst.dependencies[y]
                    for y in inst.existentials)
                reference = Solver(build_verification_cnf(inst, candidates),
                                   rng=0).solve()
                status = session.solve(candidates)
                assert status == reference
                if status != SAT:
                    continue
                sat_models += 1
                delta = session.model
                assert any(falsifies(delta, c) for c in inst.matrix.clauses)
                x = {v: delta[v] for v in inst.universals}
                assert {y: delta[y] for y in inst.existentials} == \
                    evaluate_vector(candidates, order, x)
        # The batch exercised both answers and composed candidates.
        assert composed and sat_models and sat_models < 3 * PER_BATCH

    def test_tautologies_and_empty_matrix(self):
        # (x1 ∨ ¬x1) can never be falsified; an empty ϕ neither.
        for clauses in ([[1, -1]], [[2, 1, -2]], []):
            inst = make([1], {2: [1]}, clauses)
            assert VerifierSession(inst).solve({2: bf.FALSE}) == UNSAT
        # An empty clause is false under every model.
        inst = make([1], {2: [1]}, [[1, 2], []])
        assert VerifierSession(inst).solve({2: bf.TRUE}) == SAT


class CountdownDeadline:
    """Expires on its ``after``-th ``expired()`` poll and stays so."""

    def __init__(self, after):
        self.polls = 0
        self.after = after

    def expired(self):
        self.polls += 1
        return self.polls >= self.after

    def check(self):
        if self.expired():
            raise ResourceBudgetExceeded("stub deadline")


class TestECheckBudget:
    """``VALID`` only when every clause query answered UNSAT."""

    # y3 ↔ x1, y4 ↔ ¬x2: four clauses, all UNSAT under the right links.
    INST = make([1, 2], {3: [1], 4: [2]},
                [[-3, 1], [3, -1], [-4, -2], [4, 2]])
    RIGHT = {3: bf.var(1), 4: bf.not_(bf.var(2))}

    def test_right_vector_is_valid(self):
        assert verify_candidates(self.INST, self.RIGHT,
                                 session=VerifierSession(self.INST)) \
            .verdict == "VALID"

    def test_deadline_expiring_mid_loop_raises(self):
        session = VerifierSession(self.INST)
        with pytest.raises(ResourceBudgetExceeded):
            verify_candidates(self.INST, self.RIGHT, session=session,
                              deadline=CountdownDeadline(after=3))
        assert session.calls == 1

    def test_unknown_query_raises(self, monkeypatch):
        """The second clause query answers UNKNOWN; the remaining ones
        would all answer UNSAT."""
        monkeypatch.setenv(PLAN_ENV, "solve@2=unknown")
        session = VerifierSession(self.INST, backend="faulty:python")
        with pytest.raises(ResourceBudgetExceeded):
            verify_candidates(self.INST, self.RIGHT, session=session)
        assert session.solver.calls["solve"] == 2

    def test_deadline_mid_loop_ends_run_in_timeout(self):
        """A run deadline that expires after the first clause query of
        the E-check ends the run TIMEOUT, not SYNTHESIZED."""
        config = Manthan3Config(seed=3, use_self_substitution=False)
        deadline = CountdownDeadline(after=10 ** 9)
        ctx = SynthesisContext(self.INST, config, deadline=deadline)
        build_sessions(ctx)
        ctx.candidates = dict(self.RIGHT)
        ctx.order = [3, 4]
        solver = ctx.verifier_session.solver
        real_solve = solver.solve

        def solve_then_trip(*args, **kwargs):
            status = real_solve(*args, **kwargs)
            deadline.after = 0
            return status

        solver.solve = solve_then_trip
        result = Pipeline(("verify_repair",)).execute(ctx)
        assert result.status == Status.TIMEOUT
        assert ctx.verifier_session.calls == 1


class TestClausewiseUnates:
    @pytest.mark.parametrize("batch", range(BATCHES))
    def test_agrees_with_cofactor_check(self, batch):
        rng = random.Random(1000 + batch)
        one_polarity = with_units = 0
        for _ in range(PER_BATCH):
            inst = random_instance(rng)
            matrix = inst.matrix
            session = MatrixSession(matrix, rng=batch)
            for y in inst.existentials:
                polarities = {l > 0 for c in matrix.clauses for l in c
                              if abs(l) == y}
                one_polarity += len(polarities) < 2
                for value in (True, False):
                    assert session.unate_check(y, value) == \
                        _is_unate(matrix, y, value)
            # Checks after units on other outputs are committed.
            working = matrix.copy()
            units = MatrixSession(matrix, rng=batch)
            y, *others = rng.sample(inst.existentials,
                                    len(inst.existentials))
            for other in others:
                literal = other * rng.choice((1, -1))
                working.add_unit(literal)
                units.add_unit(literal)
                with_units += 1
            for value in (True, False):
                assert units.unate_check(y, value) == \
                    _is_unate(working, y, value)
            # And the whole pass, which commits its own units.
            assert detect_unates(inst, matrix_session=MatrixSession(
                matrix, rng=batch)) == detect_unates(inst)
        assert one_polarity and with_units
