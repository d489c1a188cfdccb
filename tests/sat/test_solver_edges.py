"""Edge-case backfill for the incremental solver protocol corners.

The differential fuzzer (``test_backend_differential.py``) covers the
broad behavior statistically; these tests pin the corners by name so a
regression reads as *which* contract broke, not just "seed 137
diverged": selector masking, release-after-UNSAT, the group-collision
guard, budget-vs-deadline precedence, and the empty-clause /
empty-assumption degenerate cases.  Protocol-level tests run against
both the native-group reference and the selector-emulation layer.
"""

import pytest

from repro.sat.backend import make_backend
from repro.sat.solver import SAT, UNSAT, UNKNOWN, Solver
from repro.utils.errors import ReproError
from repro.utils.timer import Deadline

BACKENDS = ["python", "python-emulated"]


def php_backend(name, pigeons, holes):
    """The pigeonhole principle: UNSAT, with plenty of conflicts —
    the standard way to make a budget bite on a tiny variable count."""
    solver = make_backend(name)
    solver.ensure_vars(pigeons * holes)

    def var(i, j):
        return (i - 1) * holes + j

    for i in range(1, pigeons + 1):
        solver.add_clause([var(i, j) for j in range(1, holes + 1)])
    for j in range(1, holes + 1):
        for a in range(1, pigeons + 1):
            for b in range(a + 1, pigeons + 1):
                solver.add_clause([-var(a, j), -var(b, j)])
    return solver


@pytest.mark.parametrize("backend", BACKENDS)
class TestSelectorMasking:
    def test_model_never_contains_selectors(self, backend):
        solver = make_backend(backend)
        solver.ensure_vars(2)
        live = solver.new_group()
        released = solver.new_group()
        solver.add_clause((1,), group=live)
        solver.add_clause((2,), group=released)
        solver.release_group(released)
        assert solver.solve() == SAT
        # Exactly the problem variables: live *and released* selectors
        # are masked, nothing else is dropped.
        assert set(solver.model) == {1, 2}
        assert solver.model[1] is True

    def test_core_never_contains_selectors(self, backend):
        solver = make_backend(backend)
        solver.ensure_vars(2)
        group = solver.new_group()
        solver.add_clause((-1, 2), group=group)
        solver.add_clause((-2,), group=group)
        assert solver.solve(assumptions=[1]) == UNSAT
        assert solver.core == [1]


@pytest.mark.parametrize("backend", BACKENDS)
class TestReleaseAfterUnsat:
    def test_release_clears_assumption_unsat(self, backend):
        """UNSAT-under-assumptions must not poison the session: the
        verifier releases a candidate's group right after a refuting
        round and re-solves."""
        solver = make_backend(backend)
        solver.ensure_vars(2)
        group = solver.new_group()
        solver.add_clause((-1,), group=group)
        assert solver.solve(assumptions=[1]) == UNSAT
        assert solver.core == [1]
        solver.release_group(group)
        assert solver.solve(assumptions=[1]) == SAT
        assert solver.model[1] is True

    def test_adding_to_released_group_rejected(self, backend):
        solver = make_backend(backend)
        solver.ensure_vars(1)
        group = solver.new_group()
        solver.release_group(group)
        with pytest.raises(ReproError):
            solver.add_clause((1,), group=group)


@pytest.mark.parametrize("backend", BACKENDS)
class TestGroupCollisionGuard:
    def test_clause_on_selector_variable_rejected(self, backend):
        """Problem variables must be reserved before opening groups; a
        clause whose literal lands on a selector is an encoding bug and
        must fail loudly, not silently couple to the group machinery."""
        solver = make_backend(backend)
        solver.ensure_vars(1)
        solver.new_group()          # selector lands on variable 2
        with pytest.raises(ReproError, match="group selector"):
            solver.add_clause((1, 2))
        with pytest.raises(ReproError, match="group selector"):
            solver.add_clause((-2,))

    def test_unknown_group_rejected(self, backend):
        solver = make_backend(backend)
        with pytest.raises(ReproError):
            solver.add_clause((1,), group=99)
        with pytest.raises(ReproError):
            solver.release_group(99)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBudgetDeadlinePrecedence:
    def test_conflict_budget_bites_before_deadline_poll(self, backend):
        """The conflict budget is checked at every conflict; the
        deadline only at restart boundaries and every 256th conflict.
        With both set, a small budget must stop the search first."""
        solver = php_backend(backend, 7, 6)
        before = solver.stats()["conflicts"]
        status = solver.solve(conflict_budget=3, deadline=Deadline(0.0))
        assert status == UNKNOWN
        assert solver.stats()["conflicts"] - before == 3

    def test_expired_deadline_alone_returns_unknown(self, backend):
        solver = php_backend(backend, 7, 6)
        assert solver.solve(deadline=Deadline(0.0)) == UNKNOWN

    def test_solver_usable_after_unknown(self, backend):
        """Budget exhaustion is a pause, not corruption: the same
        session must later finish the proof (keeping its learnts)."""
        solver = php_backend(backend, 7, 6)
        assert solver.solve(conflict_budget=5) == UNKNOWN
        assert solver.solve() == UNSAT
        assert solver.core == []

    def test_easy_call_ignores_generous_budget(self, backend):
        solver = make_backend(backend)
        solver.add_clause((1, 2))
        assert solver.solve(conflict_budget=1000,
                            deadline=Deadline(60.0)) == SAT


@pytest.mark.parametrize("backend", BACKENDS)
class TestDegenerateInputs:
    def test_empty_clause_is_root_conflict(self, backend):
        solver = make_backend(backend)
        assert solver.add_clause(()) is False
        assert solver.ok is False
        assert solver.solve() == UNSAT
        assert solver.core == []
        # Dead solvers stay dead, quietly.
        assert solver.add_clause((1,)) is False
        assert solver.solve(assumptions=[1]) == UNSAT

    def test_empty_formula_empty_assumptions(self, backend):
        solver = make_backend(backend)
        assert solver.solve() == SAT
        assert solver.model == {}

    def test_contradictory_assumptions(self, backend):
        solver = make_backend(backend)
        solver.ensure_vars(1)
        assert solver.solve(assumptions=[1, -1]) == UNSAT
        assert set(solver.core) == {1, -1}

    def test_unconditional_unsat_has_empty_core(self, backend):
        solver = make_backend(backend)
        solver.ensure_vars(2)
        solver.add_clause((1,))
        solver.add_clause((-1,))
        assert solver.solve(assumptions=[2]) == UNSAT
        assert solver.core == []


@pytest.mark.parametrize("backend", BACKENDS)
class TestLiteralZeroRejected:
    """``0`` is DIMACS's clause terminator, never a literal: both entry
    points reject it and leave the solver as it was."""

    @pytest.mark.parametrize("lits", [(0,), (1, 0, 2), (0, 0)])
    def test_add_clause_rejects_zero(self, backend, lits):
        solver = make_backend(backend)
        solver.ensure_vars(2)
        with pytest.raises(ReproError, match="literal 0"):
            solver.add_clause(lits)
        # Nothing was stored: the solver answers as if never asked.
        assert solver.ok is True
        assert solver.solve() == SAT
        assert set(solver.model) == {1, 2}

    def test_grouped_clause_rejects_zero(self, backend):
        solver = make_backend(backend)
        solver.ensure_vars(1)
        group = solver.new_group()
        with pytest.raises(ReproError, match="literal 0"):
            solver.add_clause((1, 0), group=group)
        solver.add_clause((-1,), group=group)
        assert solver.solve() == SAT
        assert solver.model == {1: False}

    @pytest.mark.parametrize("assumptions", [[0], [1, 0], [0, -2]])
    def test_solve_rejects_zero_assumption(self, backend, assumptions):
        solver = make_backend(backend)
        solver.ensure_vars(2)
        solver.add_clause((1, 2))
        with pytest.raises(ReproError, match="literal 0"):
            solver.solve(assumptions=assumptions)
        assert solver.solve(assumptions=[-1]) == SAT
        assert solver.model == {1: False, 2: True}


class TestNativeInternals:
    """Corners specific to the native implementation (not protocol)."""

    def test_released_clauses_are_compacted(self):
        """Releasing many groups physically detaches their clauses so
        a long session's clause DB does not grow monotonically."""
        solver = Solver()
        solver.ensure_vars(3)
        for _ in range(70):
            group = solver.new_group()
            for lits in ((1, 2), (-1, 3), (2, -3)):
                solver.add_clause(lits, group=group)
            solver.release_group(group)
        assert len(solver.clauses) < 70 * 3
        assert solver.solve() == SAT
