"""Independent Henkin-certificate checking.

Lemma 1 (paper §5): ``f`` is a Henkin function vector iff
``¬ϕ(X,Y) ∧ (Y ↔ f)`` is UNSAT.  The checker additionally enforces the
*syntactic* side condition that each ``f_i`` only mentions variables from
``H_i`` — engines must deliver functions already substituted down to the
dependency sets (Algorithm 1, line 19).

This module is deliberately independent of the engines: it rebuilds the
verification formula from scratch so that engine bugs cannot certify
themselves.
"""

from repro.formula.cnf import CNF
from repro.formula.tseitin import TseitinEncoder, negated_cnf_expr
from repro.sat.solver import Solver, SAT, UNSAT


class CertificateResult:
    """Outcome of a certificate check.

    ``valid`` is True iff the vector is a Henkin function vector.  On
    failure, ``reason`` explains why and — for semantic failures —
    ``counterexample`` holds an X-assignment under which the functions
    violate ϕ.
    """

    def __init__(self, valid, reason="", counterexample=None):
        self.valid = valid
        self.reason = reason
        self.counterexample = counterexample

    def __bool__(self):
        return self.valid

    def __repr__(self):
        return "CertificateResult(valid=%r, reason=%r)" % (self.valid,
                                                           self.reason)


def _check_shape(instance, functions):
    """The syntactic side of both Henkin checkers: every existential has
    a function, and each ``f_i`` mentions only ``H_i``.  Returns the
    failing :class:`CertificateResult`, or ``None`` when both hold."""
    missing = [y for y in instance.existentials if y not in functions]
    if missing:
        return CertificateResult(False, "missing functions for %r" % missing)
    for y in instance.existentials:
        illegal = functions[y].support() - instance.dependencies[y]
        if illegal:
            return CertificateResult(
                False,
                "f_%d mentions %r outside its dependency set" %
                (y, sorted(illegal)))
    return None


def check_henkin_vector(instance, functions, deadline=None,
                        conflict_budget=None, rng=None):
    """Check a claimed Henkin vector against a DQBF instance.

    Parameters
    ----------
    instance:
        :class:`~repro.dqbf.instance.DQBFInstance`.
    functions:
        ``{y: BoolExpr}`` — one function per existential of the instance.
    """
    rejected = _check_shape(instance, functions)
    if rejected is not None:
        return rejected
    cnf, y_lits = encode_verification_formula(instance, functions)
    solver = Solver(cnf, rng=rng)
    status = solver.solve(deadline=deadline, conflict_budget=conflict_budget)
    if status == UNSAT:
        return CertificateResult(True)
    if status == SAT:
        cex = {x: solver.model[x] for x in instance.universals}
        return CertificateResult(
            False, "functions violate the matrix", counterexample=cex)
    return CertificateResult(False, "verification budget exhausted")


def check_henkin_vector_incremental(instance, functions, deadline=None,
                                    conflict_budget=None, rng=None):
    """:func:`check_henkin_vector`, decomposed for speed.

    ``¬ϕ ∧ (Y ↔ f)`` is satisfiable iff some matrix clause ``c`` has
    ``¬c ∧ (Y ↔ f)`` satisfiable, so instead of one monolithic solve
    over the Tseitin encoding of the full disjunction ``∨ ¬c``, this
    asserts the function definitions once and checks every clause as an
    assumption set (``¬c`` is a conjunction of literals) against one
    persistent solver.  Each check is heavily constrained — all of the
    clause's literals are fixed — and the learnt clauses accumulate
    across checks, the same effect that makes the engines' incremental
    verification sessions cheap.  Verdicts (and counterexamples on
    failure) agree with :func:`check_henkin_vector`; only the wall time
    differs, which is why the solution cache proves a hit by SAT through
    this path (once per entry and instance image in a process; exact
    renamings of a proven instance need no SAT call, see
    :mod:`repro.cache.resolve`).  ``conflict_budget`` bounds the
    *total* conflicts across all clause checks.
    """
    rejected = _check_shape(instance, functions)
    if rejected is not None:
        return rejected
    cnf = CNF(num_vars=instance.matrix.num_vars)
    encoder = TseitinEncoder(cnf)
    for y in instance.existentials:
        encoder.assert_iff(y, functions[y])
    solver = Solver(cnf, rng=rng)
    for clause in instance.matrix:
        remaining = None
        if conflict_budget is not None:
            remaining = conflict_budget - solver.conflicts
            if remaining <= 0:
                return CertificateResult(False,
                                         "verification budget exhausted")
        status = solver.solve(assumptions=[-lit for lit in clause],
                              deadline=deadline, conflict_budget=remaining)
        if status == SAT:
            cex = {x: solver.model[x] for x in instance.universals}
            return CertificateResult(
                False, "functions violate the matrix", counterexample=cex)
        if status != UNSAT:
            return CertificateResult(False,
                                     "verification budget exhausted")
    return CertificateResult(True)


def encode_verification_formula(instance, functions):
    """Build ``E(X, Y') = ¬ϕ(X, Y') ∧ (Y' ↔ f(X))`` as a CNF.

    Here the matrix's own Y variables play the role of Y′: they are
    constrained to equal the function outputs, and ¬ϕ is Tseitin-encoded
    over them.  Returns ``(cnf, {y: literal_of_y})``.
    """
    cnf = CNF(num_vars=instance.matrix.num_vars)
    encoder = TseitinEncoder(cnf)
    encoder.assert_expr(negated_cnf_expr(instance.matrix))
    y_lits = {}
    for y in instance.existentials:
        encoder.assert_iff(y, functions[y])
        y_lits[y] = y
    return cnf, y_lits


def check_false_witness(instance, x_assignment, deadline=None,
                        conflict_budget=None, rng=None):
    """Validate a falsity witness: ``ϕ ∧ (X ↔ x*)`` must be UNSAT.

    A DQBF is False whenever some universal assignment admits no
    existential extension at all (the Algorithm 1 line-13 case); this
    checks a claimed such assignment independently of any engine.
    """
    missing = [x for x in instance.universals if x not in x_assignment]
    if missing:
        return CertificateResult(False,
                                 "witness misses universals %r" % missing)
    solver = Solver(instance.matrix, rng=rng)
    assumptions = [x if x_assignment[x] else -x
                   for x in instance.universals]
    status = solver.solve(assumptions=assumptions, deadline=deadline,
                          conflict_budget=conflict_budget)
    if status == UNSAT:
        return CertificateResult(True)
    if status == SAT:
        return CertificateResult(False,
                                 "the witness has a Y extension")
    return CertificateResult(False, "witness check budget exhausted")
