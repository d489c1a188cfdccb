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

The session decides E one matrix clause at a time instead of encoding
``¬ϕ``: ``¬ϕ = ⋁_c ¬c``, so E is SAT iff ``¬c ∧ (Y' ↔ f)`` is SAT for
some clause ``c`` of ϕ, and each of those is an assumption query (the
negated literals of ``c``) against the links alone.  The first SAT
model falsifies its clause, so it is a model of E; ``VALID`` needs every
query to answer UNSAT, and a query without an answer, or a deadline
that expires between queries, raises instead.  The session-free path
below keeps the monolithic ``¬ϕ`` of :func:`build_verification_cnf`, so
the engine and its reference decide E by different formulations.

Simulate, then SAT.  Line 10 needs *some* model of E, and every X
assignment on which the candidates break ϕ is one.  Given the
composition ``order`` and the run's evaluation program, the session
path first evaluates the candidates and ϕ bit-parallel on ``SIM_WIDTH``
uniform X patterns drawn from ``rng`` (:func:`simulate`) and takes the
lowest failing row as δ; the SAT verifier is asked only when no row
fails — the random-simulation filter of combinational equivalence
checking (Mishchenko et al., ICCAD 2006).  ``VALID`` still comes only
from UNSAT answers.

Called without sessions, each round Tseitin-encodes the whole vector
and builds throwaway solvers, with no simulation — the session-free
reference that the session tests and the Pedant-like baseline use.  The
two SAT calls then get *independent* RNG streams spawned from ``rng`` —
sharing one stream would make the extension check's randomness depend
on how many branches the E-check happened to take.
"""

from repro.formula.bitvec import SampleMatrix, evaluate_vector_bits, \
    violated_rows
from repro.formula.cnf import CNF
from repro.formula.tseitin import TseitinEncoder, negated_cnf_expr
from repro.sat.solver import Solver, SAT, UNSAT
from repro.utils.errors import ResourceBudgetExceeded
from repro.utils.rng import make_rng, spawn

#: X patterns simulated per verification round before the SAT verifier
#: is asked (one ``getrandbits`` word per universal).
SIM_WIDTH = 1024


def run_verify(ctx):
    """Pipeline entry: one verification round against the context.

    Spawns the per-iteration RNG stream (salt ``100 + iteration``, part
    of the trajectory contract; see :mod:`repro.core.context`), which
    the simulation patterns are drawn from, and routes through the
    context's order, sessions, evaluation program and deadline.
    """
    return verify_candidates(ctx.instance, ctx.candidates, order=ctx.order,
                             rng=spawn(ctx.rng, 100 + ctx.iteration),
                             deadline=ctx.deadline,
                             session=ctx.verifier_session,
                             matrix_session=ctx.matrix_session,
                             program=ctx.program)


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


def simulate(instance, candidates, order, rng, program):
    """A counterexample found by simulation: ``(σ[X], δ[Y′])`` or ``None``.

    Evaluates the candidate vector (composed along ``order``, on the
    :class:`~repro.formula.bitvec.EvalProgram` ``program``) and ϕ on
    ``SIM_WIDTH`` uniform X patterns drawn from ``rng``.  The lowest row
    on which ϕ is false is a model of E: σ[X] is its pattern and δ[Y′]
    the candidates' outputs on it.
    """
    patterns = SampleMatrix.random(instance.universals, SIM_WIDTH, rng)
    columns = dict(patterns.columns)
    columns.update(evaluate_vector_bits(program, candidates, order,
                                        patterns))
    failing = violated_rows(instance.matrix.clauses, columns, patterns.mask)
    if not failing:
        return None
    row = (failing & -failing).bit_length() - 1
    sigma_x = {x: bool(columns[x] >> row & 1) for x in instance.universals}
    sigma_yp = {y: bool(columns[y] >> row & 1)
                for y in instance.existentials}
    return sigma_x, sigma_yp


def verify_candidates(instance, candidates, order=None, rng=None,
                      deadline=None, session=None, matrix_session=None,
                      program=None):
    """Run the verification phase: find a model of E, then check it
    extends (Algorithm 1, lines 10–16).

    With ``session``/``matrix_session`` the oracles are incremental
    queries against persistent solvers, and given ``order`` and
    ``program`` (an :class:`~repro.formula.bitvec.EvalProgram`) the
    session path tries :func:`simulate` before the E-check (a simulated
    round counts under ``session.simulated``); without sessions
    throwaway solvers are built (the session-free reference).  Raises
    :class:`ResourceBudgetExceeded` when an oracle call returns no
    answer (the engine maps this to TIMEOUT).
    """
    rng = make_rng(rng)
    found = None
    if session is not None and program is not None:
        found = simulate(instance, candidates, order, rng, program)
        if found is not None:
            session.simulated += 1
    if found is None:
        if session is not None:
            status = session.solve(candidates, deadline=deadline)
            delta = session.model
        else:
            e_cnf = build_verification_cnf(instance, candidates)
            solver = Solver(e_cnf, rng=spawn(rng, 1))
            status = solver.solve(deadline=deadline)
            delta = solver.model
        if status == UNSAT:
            return VerificationOutcome("VALID")
        if status != SAT:
            raise ResourceBudgetExceeded("verification SAT call budget")
        found = ({x: delta[x] for x in instance.universals},
                 {y: delta[y] for y in instance.existentials})
    sigma_x, sigma_yp = found

    # Does ϕ(X, Y) ∧ (X ↔ δ[X]) have a model?  (Algorithm 1, line 13)
    assumptions = [x if sigma_x[x] else -x for x in instance.universals]
    if matrix_session is not None:
        ext_status = matrix_session.solve(
            assumptions, purpose="extension", deadline=deadline)
        pi = matrix_session.model
    else:
        ext_solver = Solver(instance.matrix, rng=spawn(rng, 2))
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
