"""Core-guided MaxSAT: the Fu–Malik algorithm (unweighted).

Each soft clause gets an *assumption literal*; solving under all
assumptions either succeeds (cost found) or yields an UNSAT core naming a
set of softs that cannot be jointly satisfied.  Every soft in the core is
relaxed with a fresh blocking variable, an exactly-one constraint ties the
blockers together, and the lower bound increases by one.  Iterating until
SAT yields an optimal model.

This mirrors what Open-WBO's default configuration does on the unweighted
unit-soft queries Manthan3 issues.
"""

from repro.formula.cnf import CNF
from repro.maxsat.cardinality import encode_exactly_one
from repro.maxsat.types import MaxSatResult, SoftClause
from repro.sat.solver import Solver, SAT, UNSAT
from repro.utils.errors import ResourceBudgetExceeded


def fu_malik(hard, softs, rng=None, deadline=None):
    """Run Fu–Malik on ``hard`` (CNF) and ``softs`` (list of clauses)."""
    softs = [SoftClause(lits, i) for i, lits in enumerate(softs)]
    work = hard.copy()
    # Soft clauses may mention variables beyond the hard formula's
    # watermark; reserve them before allocating activation variables.
    problem_vars = work.num_vars
    for soft in softs:
        for l in soft.lits:
            problem_vars = max(problem_vars, abs(l))
    work.num_vars = problem_vars

    # Soft clause i becomes (lits ∨ ¬a_i); assuming a_i activates it.
    # ``working`` tracks the clause including blockers accumulated across
    # relaxation rounds (a soft can appear in several cores).
    assumption_of = {}
    working = {}
    for soft in softs:
        a = work.fresh_var()
        working[soft.index] = list(soft.lits)
        work.add_clause(tuple(soft.lits) + (-a,))
        assumption_of[soft.index] = a

    solver = Solver(work, rng=rng)
    cost = 0
    while True:
        if deadline is not None:
            deadline.check()
        assumptions = [assumption_of[s.index] for s in softs]
        status = solver.solve(assumptions=assumptions, deadline=deadline)
        if status == SAT:
            model = {v: solver.model[v] for v in range(1, problem_vars + 1)}
            falsified = [s.index for s in softs if not s.satisfied_by(solver.model)]
            return MaxSatResult(True, cost=cost, model=model,
                                falsified=falsified)
        if status != UNSAT:
            raise ResourceBudgetExceeded("MaxSAT budget exceeded")
        core_assumptions = set(solver.core)
        core_softs = [s for s in softs
                      if assumption_of[s.index] in core_assumptions]
        if not core_softs:
            # Hard clauses alone are UNSAT.
            return MaxSatResult(False)
        cost += 1
        # Relax every soft in the core with a fresh blocking variable.
        blockers = []
        for soft in core_softs:
            b = solver.num_vars + 1
            solver.ensure_vars(b)
            blockers.append(b)
            old_a = assumption_of[soft.index]
            new_a = b + 1
            solver.ensure_vars(new_a)
            # Grow the working clause by the new blocker and re-activate
            # under a fresh assumption; retire the old activation literal.
            working[soft.index] = working[soft.index] + [b]
            solver.add_clause(working[soft.index] + [-new_a])
            solver.add_clause([-old_a])
            assumption_of[soft.index] = new_a
        scratch = CNF(num_vars=solver.num_vars)
        encode_exactly_one(scratch, blockers)
        solver.ensure_vars(scratch.num_vars)
        for clause in scratch.clauses:
            solver.add_clause(clause)
        if not solver.ok:
            return MaxSatResult(False)
