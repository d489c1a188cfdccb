"""Candidate verification (Algorithm 1, lines 10–16).

Builds ``E(X, Y') = ¬ϕ(X, Y') ∧ (Y' ↔ f)`` where — unlike the final
certificate check — candidate functions may still reference other Y
variables (composition is resolved at substitution time, line 19).  The
matrix's own Y variables serve as Y′: each is tied to its candidate's
Tseitin output, so a model δ of E directly yields δ[X] and δ[Y′].

The engine passes its sessions: ``session`` is a long-lived
:class:`~repro.core.sessions.VerifierSession` that re-encodes only
repaired candidates, and ``matrix_session`` answers the extension check
by assumptions against its persistent ϕ-solver.

Called without sessions, each round Tseitin-encodes the whole vector
and builds throwaway solvers — the session-free reference that the
session tests and the Pedant-like baseline use.  The two SAT calls then
get *independent* RNG streams spawned from ``rng`` — sharing one stream
would make the extension check's randomness depend on how many branches
the E-check happened to take.
"""

from repro.formula.cnf import CNF
from repro.formula.tseitin import TseitinEncoder, negated_cnf_expr
from repro.sat.solver import Solver, SAT, UNSAT
from repro.utils.errors import ResourceBudgetExceeded
from repro.utils.rng import make_rng, spawn


def run_verify(ctx):
    """Pipeline entry: one verification round against the context.

    Spawns the per-iteration RNG stream (salt ``100 + iteration``, part
    of the trajectory contract; see :mod:`repro.core.context`) and
    routes through the context's sessions and deadline.
    """
    return verify_candidates(ctx.instance, ctx.candidates,
                             rng=spawn(ctx.rng, 100 + ctx.iteration),
                             deadline=ctx.deadline,
                             session=ctx.verifier_session,
                             matrix_session=ctx.matrix_session)


class VerificationOutcome:
    """Result of one verification round.

    ``verdict`` is ``"VALID"`` (E UNSAT — candidates are Henkin
    functions), ``"FALSE"`` (some δ[X] admits no Y extension — the DQBF is
    False), or ``"COUNTEREXAMPLE"`` with the σ components of the paper:
    ``sigma_x = π[X] = δ[X]``, ``sigma_y = π[Y]`` (a satisfying
    extension), ``sigma_yp = δ[Y′]`` (current candidate outputs).
    """

    def __init__(self, verdict, sigma_x=None, sigma_y=None, sigma_yp=None):
        self.verdict = verdict
        self.sigma_x = sigma_x
        self.sigma_y = sigma_y
        self.sigma_yp = sigma_yp

    def __repr__(self):
        return "VerificationOutcome(%s)" % self.verdict


def build_verification_cnf(instance, candidates):
    """CNF of ``E(X, Y')`` for the current candidate vector."""
    cnf = CNF(num_vars=instance.matrix.num_vars)
    encoder = TseitinEncoder(cnf)
    encoder.assert_expr(negated_cnf_expr(instance.matrix))
    for y in instance.existentials:
        encoder.assert_iff(y, candidates[y])
    return cnf


def verify_candidates(instance, candidates, rng=None, deadline=None,
                      session=None, matrix_session=None):
    """Run the two SAT checks of the verification phase.

    With ``session``/``matrix_session`` the oracles are incremental
    queries against persistent solvers; without them throwaway solvers
    are built (the session-free reference).  Raises
    :class:`ResourceBudgetExceeded` when an oracle call returns no
    answer (the engine maps this to TIMEOUT).
    """
    ext_rng = None
    if session is not None:
        status = session.solve(candidates, deadline=deadline)
        delta = session.model
    else:
        rng = make_rng(rng)
        e_rng, ext_rng = spawn(rng, 1), spawn(rng, 2)
        e_cnf = build_verification_cnf(instance, candidates)
        solver = Solver(e_cnf, rng=e_rng)
        status = solver.solve(deadline=deadline)
        delta = solver.model
    if status == UNSAT:
        return VerificationOutcome("VALID")
    if status != SAT:
        raise ResourceBudgetExceeded("verification SAT call budget")
    sigma_x = {x: delta[x] for x in instance.universals}
    sigma_yp = {y: delta[y] for y in instance.existentials}

    # Does ϕ(X, Y) ∧ (X ↔ δ[X]) have a model?  (Algorithm 1, line 13)
    assumptions = [x if sigma_x[x] else -x for x in instance.universals]
    if matrix_session is not None:
        ext_status = matrix_session.solve(
            assumptions, purpose="extension", deadline=deadline)
        pi = matrix_session.model
    else:
        if ext_rng is None:  # session E-check, no matrix session
            ext_rng = spawn(make_rng(rng), 2)
        ext_solver = Solver(instance.matrix, rng=ext_rng)
        ext_status = ext_solver.solve(assumptions=assumptions,
                                      deadline=deadline)
        pi = ext_solver.model
    if ext_status == UNSAT:
        return VerificationOutcome("FALSE", sigma_x=sigma_x)
    if ext_status != SAT:
        raise ResourceBudgetExceeded("extension SAT call budget")
    sigma_y = {y: pi[y] for y in instance.existentials}
    return VerificationOutcome("COUNTEREXAMPLE", sigma_x=sigma_x,
                               sigma_y=sigma_y, sigma_yp=sigma_yp)
