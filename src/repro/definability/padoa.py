"""Semantic unique-definability checks and definition extraction.

Padoa's method: ``y`` is uniquely defined by the variable set ``H`` under
ϕ iff the *two-copy* formula

    ϕ(V) ∧ ϕ(V′) ∧ (H ↔ H′) ∧ y ∧ ¬y′

is unsatisfiable (two models agreeing on ``H`` can never disagree on
``y``).  Extraction then builds the truth table of the forced value row by
row — one SAT query per ``H`` assignment — and returns it as a DNF
expression.  This replaces the interpolation machinery of UNIQUE with the
same input/output contract; it is exact but exponential in ``|H|``, so
callers bound it via ``max_table_bits``.
"""

from repro.formula import boolfunc as bf
from repro.sat.solver import Solver, SAT, UNSAT
from repro.utils.errors import ResourceBudgetExceeded


def _two_copy_formula(cnf, shared, y):
    """Build ``ϕ(V) ∧ ϕ(V′) ∧ (shared ↔ shared′) ∧ y ∧ ¬y′``."""
    out = cnf.copy()
    offset = out.num_vars
    mapping = {v: v + offset for v in range(1, cnf.num_vars + 1)}
    primed = cnf.relabeled(mapping)
    out.num_vars = offset + cnf.num_vars
    for clause in primed.clauses:
        out.add_clause(clause)
    for v in shared:
        out.add_clause((-v, mapping[v]))
        out.add_clause((v, -mapping[v]))
    out.add_unit(y)
    out.add_unit(-mapping[y])
    return out


def is_uniquely_defined(cnf, y, dependency_vars, deadline=None, rng=None):
    """Padoa check: is ``y`` uniquely defined by ``dependency_vars``?

    Returns ``True``/``False``, or ``None`` if the SAT call returned no
    answer.
    """
    formula = _two_copy_formula(cnf, sorted(dependency_vars), y)
    solver = Solver(formula, rng=rng)
    status = solver.solve(deadline=deadline)
    if status == UNSAT:
        return True
    if status == SAT:
        return False
    return None


def extract_definition(cnf, y, dependency_vars, max_table_bits=12,
                       deadline=None, rng=None):
    """Truth-table definition of ``y`` over ``dependency_vars``.

    Assumes unique definability (call :func:`is_uniquely_defined` first).
    For each assignment α of the dependency set, one SAT call decides
    whether ``ϕ ∧ (H ↔ α) ∧ y`` is satisfiable; if yes the forced value is
    1, otherwise 0 (rows where ϕ itself is unsatisfiable are don't-cares
    mapped to 0).  Returns a :class:`~repro.formula.boolfunc.BoolExpr`, or
    ``None`` when ``|H| > max_table_bits``.
    """
    deps = sorted(dependency_vars)
    if len(deps) > max_table_bits:
        return None
    solver = Solver(cnf, rng=rng)
    minterms = []
    for row in range(1 << len(deps)):
        if deadline is not None:
            deadline.check()
        assumptions = []
        for i, v in enumerate(deps):
            bit = (row >> i) & 1
            assumptions.append(v if bit else -v)
        status = solver.solve(assumptions=assumptions + [y],
                              deadline=deadline)
        if status == SAT:
            minterms.append(bf.and_(*[bf.lit(l) for l in assumptions]))
        elif status != UNSAT:
            raise ResourceBudgetExceeded("definition extraction budget")
    return bf.or_(*minterms)

