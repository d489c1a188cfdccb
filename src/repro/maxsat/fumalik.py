"""Core-guided MaxSAT: the Fu–Malik algorithm (unweighted).

Solving under one assumption literal per soft clause either succeeds
(cost found) or yields an UNSAT core naming a set of softs that cannot
be jointly satisfied.  Every soft in the core is relaxed with a fresh
blocking variable, an exactly-one constraint ties the blockers
together, and the lower bound increases by one.  Iterating until SAT
yields an optimal model.

:func:`fu_malik_on` runs the algorithm on a live
:class:`~repro.sat.backend.SatBackend` whose clauses are the hards, the
way the paper's implementation drives an incremental Open-WBO
(Martins, Manquinho & Lynce, *Open-WBO: A Modular MaxSAT Solver*,
SAT 2014):

* the caller's assumptions (Manthan3's ``X ↔ σ[X]``) are extra hards
  that last one call, and a unit soft is assumed as its own literal, so
  it needs no activation variable until a core relaxes it;
* every clause the relaxations add goes into one clause group.  When
  the call ends the group is released and every variable the call
  reserved is fixed to false at level 0.  That is sound because those
  variables occur only in the released clauses, and every learnt
  clause that mentions them also holds the group's released selector
  (MiniSat's ``releaseVar`` does the same).  So the backend's later
  queries carry neither the call's clauses nor its variables as
  decisions, and keep every learnt clause over the hards.

:func:`fu_malik` is the CNF entry: it builds a solver from the hards
and runs the same routine.
"""

from repro.formula.cnf import CNF
from repro.maxsat.cardinality import encode_exactly_one
from repro.maxsat.types import MaxSatResult, SoftClause
from repro.sat.solver import Solver, SAT, UNSAT
from repro.utils.errors import ResourceBudgetExceeded


def fu_malik(hard, softs, rng=None, deadline=None):
    """Run Fu–Malik on ``hard`` (CNF) and ``softs`` (list of clauses)."""
    softs = [tuple(lits) for lits in softs]
    solver = Solver(hard, rng=rng)
    # Soft clauses may mention variables beyond the hard formula's
    # watermark; reserve them before the call opens its group.
    solver.ensure_vars(max([abs(l) for lits in softs for l in lits],
                           default=0))
    return fu_malik_on(solver, softs, deadline=deadline)


def fu_malik_on(backend, softs, assumptions=(), deadline=None):
    """Run Fu–Malik on ``backend`` under ``assumptions``.

    ``backend``'s clauses and ``assumptions`` are the hards; ``softs``
    is a list of clauses over variables the backend already has.  The
    result's ``model`` covers the variables that existed before the
    call.  The backend is left as it was found, apart from learnt
    clauses and the call's variables fixed at level 0.
    """
    softs = [SoftClause(lits, i) for i, lits in enumerate(softs)]
    group = backend.new_group()
    reserved = []
    try:
        return _relax_until_sat(backend, softs, list(assumptions), group,
                                reserved, deadline)
    finally:
        backend.release_group(group)
        for v in reserved:
            backend.add_clause((-v,))


def _relax_until_sat(backend, softs, assumptions, group, reserved,
                     deadline):
    """The Fu–Malik loop; appends every variable it reserves to
    ``reserved`` for the caller to fix."""
    # A unit soft is assumed as its literal; any other soft, and every
    # relaxed one, becomes (lits ∨ blockers ∨ ¬a) in the group with its
    # activation literal a assumed.  ``working`` holds lits ∨ blockers.
    assumption_of = {}
    working = {}
    for soft in softs:
        working[soft.index] = list(soft.lits)
        if len(soft.lits) == 1:
            assumption_of[soft.index] = soft.lits[0]
        else:
            assumption_of[soft.index] = _activate(
                backend, working[soft.index], group, reserved)
    cost = 0
    while True:
        if deadline is not None:
            deadline.check()
        status = backend.solve(
            assumptions=assumptions + [assumption_of[s.index]
                                       for s in softs],
            deadline=deadline)
        if status == SAT:
            model = dict(backend.model)
            for v in reserved:
                del model[v]
            falsified = [s.index for s in softs
                         if not s.satisfied_by(model)]
            return MaxSatResult(True, cost=cost, model=model,
                                falsified=falsified)
        if status != UNSAT:
            raise ResourceBudgetExceeded("MaxSAT budget exceeded")
        core = set(backend.core)
        core_softs = [s for s in softs if assumption_of[s.index] in core]
        if not core_softs:
            # The hards and the caller's assumptions alone are UNSAT.
            return MaxSatResult(False)
        cost += 1
        # Relax every soft in the core with a fresh blocking variable and
        # re-activate it under a fresh assumption literal.
        blockers = []
        for soft in core_softs:
            b = backend.reserve_var()
            reserved.append(b)
            blockers.append(b)
            working[soft.index].append(b)
            old = assumption_of[soft.index]
            assumption_of[soft.index] = _activate(
                backend, working[soft.index], group, reserved)
            if old not in soft.lits:
                # The superseded clause only holds while ``old`` is
                # assumed: retire it for the rest of the call.
                backend.add_clause((-old,))
        scratch = CNF(num_vars=backend.num_vars)
        encode_exactly_one(scratch, blockers)
        for clause in scratch.clauses:
            backend.add_clause(clause, group=group)


def _activate(backend, lits, group, reserved):
    """Add ``lits ∨ ¬a`` to ``group`` for a fresh ``a``; returns ``a``."""
    a = backend.reserve_var()
    reserved.append(a)
    backend.add_clause(lits + [-a], group=group)
    return a
