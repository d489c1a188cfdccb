"""Model-improving (LSU) MaxSAT: linear SAT–UNSAT search.

Relax every soft clause with a dedicated relaxation variable, find any
model, then repeatedly tighten a sequential-counter cardinality bound on
the relaxers (``Σ r_i ≤ cost − 1``) until the formula becomes UNSAT; the
last model is optimal.  Simple, predictable, and a useful cross-check for
the core-guided solver in tests.
"""

from repro.maxsat.cardinality import encode_at_most_k
from repro.maxsat.types import MaxSatResult, SoftClause
from repro.sat.solver import Solver, SAT, UNSAT
from repro.utils.errors import ResourceBudgetExceeded


def linear_search(hard, softs, rng=None, deadline=None):
    """Run LSU on ``hard`` (CNF) and ``softs`` (list of clauses)."""
    softs = [SoftClause(lits, i) for i, lits in enumerate(softs)]
    work = hard.copy()
    # Reserve soft-clause variables before allocating relaxers.
    problem_vars = work.num_vars
    for soft in softs:
        for l in soft.lits:
            problem_vars = max(problem_vars, abs(l))
    work.num_vars = problem_vars
    relaxer_of = {}
    for soft in softs:
        r = work.fresh_var()
        work.add_clause(tuple(soft.lits) + (r,))
        relaxer_of[soft.index] = r

    best_model = None
    best_cost = None
    while True:
        if deadline is not None:
            deadline.check()
        solver = Solver(work, rng=rng)
        status = solver.solve(deadline=deadline)
        if status == UNSAT:
            break
        if status != SAT:
            raise ResourceBudgetExceeded("MaxSAT budget exceeded")
        # Cost from actual soft satisfaction (a relaxer may idle at True).
        cost = sum(1 for s in softs if not s.satisfied_by(solver.model))
        best_model = solver.model
        best_cost = cost
        if cost == 0:
            break
        encode_at_most_k(work, [relaxer_of[s.index] for s in softs], cost - 1)
        # Tie relaxers to actual falsification so the bound is meaningful:
        # r_i may only be true when the soft is violated is not enforced,
        # but Σ r ≤ cost−1 with (soft ∨ r) forces at least one previously
        # falsified soft to become satisfied, so the search is monotone.

    if best_model is None:
        return MaxSatResult(False)
    model = {v: best_model[v] for v in range(1, problem_vars + 1)}
    falsified = [s.index for s in softs if not s.satisfied_by(best_model)]
    return MaxSatResult(True, cost=best_cost, model=model, falsified=falsified)
