"""Fu–Malik on a live backend (:func:`repro.maxsat.fu_malik_on`).

Many calls share one solver, interleaved with plain assumption queries,
the way ``FindCandi`` shares the matrix session with the extension and
``Gk`` checks.  Every cost must equal the cost ``linear_search`` finds
on a fresh copy of the hards plus the call's assumptions, and every
plain answer must equal a fresh solver's: a call leaves no clause
behind that constrains the hards.
"""

import random

import pytest

from repro.formula.cnf import CNF
from repro.maxsat import fu_malik_on, linear_search
from repro.sat.backend import make_backend
from repro.sat.solver import SAT, Solver

NUM_VARS = 7


def random_clauses(rng, count):
    clauses = []
    for _ in range(count):
        width = rng.choice([1, 2, 2, 3, 3, 3])
        chosen = rng.sample(range(1, NUM_VARS + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return clauses


def random_lits(rng, count):
    chosen = rng.sample(range(1, NUM_VARS + 1), count)
    return [v if rng.random() < 0.5 else -v for v in chosen]


def reference_cost(clauses, assumptions, softs):
    """``linear_search`` over the hards plus the assumptions as units;
    ``None`` when that is UNSAT."""
    hard = CNF(clauses + [[l] for l in assumptions], num_vars=NUM_VARS)
    result = linear_search(hard, softs)
    return result.cost if result.satisfiable else None


def fresh_status(clauses, assumptions):
    solver = Solver(CNF(clauses, num_vars=NUM_VARS))
    return solver.solve(assumptions=assumptions)


@pytest.mark.parametrize("backend_name", ["python", "python-emulated"])
@pytest.mark.parametrize("seed", range(12))
def test_calls_on_one_solver_match_linear_search(backend_name, seed):
    rng = random.Random(seed)
    clauses = random_clauses(rng, rng.randint(3, 9))
    backend = make_backend(backend_name, CNF(clauses, num_vars=NUM_VARS))
    for step in range(30):
        assumptions = random_lits(rng, rng.randint(0, 3))
        if rng.random() < 0.4:
            status = backend.solve(assumptions=assumptions)
            assert status == fresh_status(clauses, assumptions), step
            if status == SAT:
                model = backend.model
                assert all(any(model[abs(l)] == (l > 0) for l in c)
                           for c in clauses)
            continue
        softs = [[l] for l in random_lits(rng, rng.randint(1, 5))]
        if rng.random() < 0.3:
            softs.append(random_lits(rng, 2))         # a non-unit soft
        result = fu_malik_on(backend, softs, assumptions=assumptions)
        expected = reference_cost(clauses, assumptions, softs)
        if expected is None:
            assert not result.satisfiable, step
            continue
        assert result.satisfiable and result.cost == expected, step
        assert len(result.falsified) == result.cost
        for l in assumptions:
            assert result.model[abs(l)] == (l > 0)
        for index, soft in enumerate(softs):
            satisfied = any(result.model[abs(l)] == (l > 0) for l in soft)
            assert satisfied == (index not in result.falsified)


def test_call_leaves_no_unassigned_variable_behind():
    """Every variable a call reserves is fixed at level 0 when it ends."""
    backend = make_backend("python", CNF([[1, 2], [-1, -2], [1, 3]]))
    free = backend.assigns[1:].count(None)
    for _ in range(20):
        result = fu_malik_on(backend, [[1], [2], [-3], [3]])
        assert result.cost == 2
        assert backend.assigns[1:].count(None) == free
