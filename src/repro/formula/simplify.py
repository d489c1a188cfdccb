"""Unit propagation on a clause list.

The ``unit_fastpath`` phase runs :func:`propagate_units` over the matrix
alone: a conflict, or a unit forced on a universal variable, proves the
instance False before any sampling.
"""

from repro.formula.cnf import lit_var, lit_sign


def propagate_units(clauses, assignment):
    """Boolean constraint propagation on a clause list.

    Mutates ``assignment``; returns ``(clauses, conflict)`` with
    satisfied clauses dropped and falsified literals removed.
    """
    changed = True
    while changed:
        changed = False
        next_clauses = []
        for clause in clauses:
            kept = []
            satisfied = False
            for l in clause:
                value = assignment.get(lit_var(l))
                if value is None:
                    kept.append(l)
                elif value == lit_sign(l):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not kept:
                return [], True
            if len(kept) == 1:
                unit = kept[0]
                v = lit_var(unit)
                want = lit_sign(unit)
                if assignment.get(v) is not None and assignment[v] != want:
                    return [], True
                assignment[v] = want
                changed = True
                continue
            next_clauses.append(tuple(kept))
        clauses = next_clauses
    return clauses, False
