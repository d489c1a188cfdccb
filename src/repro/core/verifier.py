"""Candidate verification (Algorithm 1, lines 10–16).

Builds ``E(X, Y') = ¬ϕ(X, Y') ∧ (Y' ↔ f)`` where — unlike the final
certificate check — candidate functions may still reference other Y
variables (composition is resolved at substitution time, line 19).  The
matrix's own Y variables serve as Y′: each is tied to its candidate's
Tseitin output, so a model δ of E directly yields δ[X] and δ[Y′].

Simulate, then SAT.  Line 10 needs *some* model of E, and every X
assignment on which the candidates break ϕ is one.  The engine's round
(:func:`run_verify`) first evaluates the candidates and ϕ bit-parallel,
on the run's evaluation program, on ``SIM_WIDTH`` uniform X patterns
(:func:`simulate`) and takes the lowest failing row as δ; the SAT
verifier is asked only when no row fails — the random-simulation filter
of combinational equivalence checking (Mishchenko et al., ICCAD 2006).
``VALID`` still comes only from UNSAT answers.

Simulation answers almost every round, so the E-check it leaves
(:func:`e_check`) keeps no solver between rounds: each check builds one
fresh solver holding only the links ``Y' ↔ f`` and decides E one matrix
clause at a time instead of encoding ``¬ϕ``.  ``¬ϕ = ⋁_c ¬c``, so E is
SAT iff ``¬c ∧ (Y' ↔ f)`` is SAT for some clause ``c`` of ϕ, and each
of those is an assumption query (the negated literals of ``c``) against
the links alone.  The first SAT model falsifies its clause, so it is a
model of E; ``VALID`` needs every query to answer UNSAT, and a query
without an answer, or a deadline that expires between queries, raises
instead.  The extension check (line 13) is an assumption query against
the run's :class:`~repro.core.sessions.MatrixSession`.

:func:`verify_candidates` is the session-free reference that the tests
and the Pedant-like baseline use: no simulation, and the monolithic
``¬ϕ`` of :func:`build_verification_cnf` on throwaway solvers, so the
engine and its reference decide E by different formulations.  Its two
SAT calls get *independent* RNG streams spawned from ``rng`` — sharing
one stream would make the extension check's randomness depend on how
many branches the E-check happened to take.
"""

from contextlib import suppress

from repro.core.sessions import _ORACLE_FAILURES, _solve_each
from repro.formula.bitvec import SampleMatrix, evaluate_vector_bits, \
    violated_rows
from repro.formula.cnf import CNF
from repro.formula.tseitin import SolverSink, TseitinEncoder, \
    negated_cnf_expr
from repro.sat.backend import make_backend
from repro.sat.solver import Solver, SAT, UNSAT
from repro.utils.errors import ResourceBudgetExceeded
from repro.utils.rng import make_rng, spawn

#: X patterns simulated per verification round before the SAT verifier
#: is asked (one ``getrandbits`` word per universal).
SIM_WIDTH = 1024


def run_verify(ctx):
    """Pipeline entry: one verification round against the context.

    Spawns the per-iteration RNG stream (salt ``100 + iteration``, part
    of the trajectory contract; see :mod:`repro.core.context`) and
    draws the simulation patterns from it.  A round simulation leaves
    unanswered goes to :func:`e_check`; the extension check asks the
    matrix session.  Raises :class:`ResourceBudgetExceeded` when an
    oracle call returns no answer (the engine maps this to TIMEOUT).
    """
    instance = ctx.instance
    found = simulate(instance, ctx.candidates, ctx.order,
                     spawn(ctx.rng, 100 + ctx.iteration), ctx.program)
    if found is not None:
        ctx.verifier_stats["simulated"] += 1
    else:
        found = _counterexample(instance, *e_check(ctx, ctx.candidates))
    return _outcome(instance, found, ctx.matrix_session,
                    purpose="extension", deadline=ctx.deadline)


def e_check(ctx, candidates):
    """Is ``E`` satisfiable under ``candidates``?  ``(status, model)``.

    Builds one fresh solver on the run's current verifier backend
    (``ctx.verifier_backends[0]``, taking the run's one verifier RNG
    object), Tseitin-links every candidate, and runs one assumption
    query per matrix clause ``c``, in matrix order, asking for ``¬c``
    under the links.  Returns ``SAT`` at the first model (a model of
    E), ``UNSAT`` only when every query answered ``UNSAT``, and
    ``UNKNOWN`` as soon as a query does or ``ctx.deadline`` expires
    between queries.

    Backend failure anywhere in the check — building the solver,
    linking, or any query — moves the run to the next backend of the
    chain for good and reruns the whole check on a new solver; the
    failure is re-raised once the chain is empty.  The counters in
    ``ctx.verifier_stats`` count the check once, each move along the
    chain as a failover, and the conflicts and encoder reuse of every
    solver the check built.
    """
    instance, counters = ctx.instance, ctx.verifier_stats
    queries = [[-l for l in clause] for clause in instance.matrix.clauses]
    counters["calls"] += 1
    while True:
        encoder = None
        try:
            solver = make_backend(ctx.verifier_backends[0],
                                  rng=ctx.verifier_rng)
            solver.ensure_vars(instance.matrix.num_vars)
            encoder = TseitinEncoder(SolverSink(solver))
            for y in instance.existentials:
                encoder.assert_iff(y, candidates[y])
            return _solve_each(solver, queries, ctx.deadline), solver.model
        except _ORACLE_FAILURES:
            ctx.verifier_backends.pop(0)
            if not ctx.verifier_backends:
                raise
            counters["failovers"] += 1
        finally:
            if encoder is not None:
                counters["encode_hits"] += encoder.hits
                counters["encode_misses"] += encoder.misses
                # A dead backend may fail again when asked for them.
                with suppress(*_ORACLE_FAILURES):
                    counters["conflicts"] += solver.stats()["conflicts"]


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


def verify_candidates(instance, candidates, rng=None, deadline=None):
    """The session-free reference round: find a model of E, then check
    it extends (Algorithm 1, lines 10–16).

    No simulation; throwaway solvers decide the monolithic E of
    :func:`build_verification_cnf` and the extension check.  Raises
    :class:`ResourceBudgetExceeded` when an oracle call returns no
    answer.
    """
    rng = make_rng(rng)
    solver = Solver(build_verification_cnf(instance, candidates),
                    rng=spawn(rng, 1))
    found = _counterexample(instance, solver.solve(deadline=deadline),
                            solver.model)
    return _outcome(instance, found,
                    Solver(instance.matrix, rng=spawn(rng, 2)),
                    deadline=deadline)


def _counterexample(instance, status, delta):
    """``(σ[X], δ[Y′])`` from an answer about E; ``None`` when E is
    UNSAT."""
    if status == UNSAT:
        return None
    if status != SAT:
        raise ResourceBudgetExceeded("verification SAT call budget")
    return ({x: delta[x] for x in instance.universals},
            {y: delta[y] for y in instance.existentials})


def _outcome(instance, found, oracle, **kwargs):
    """The round's outcome for ``found`` (``None``: E is UNSAT).

    Asks ``oracle`` — a solver over ϕ, queried by assumptions with
    ``kwargs`` — whether ``ϕ(X, Y) ∧ (X ↔ δ[X])`` has a model
    (Algorithm 1, line 13).
    """
    if found is None:
        return VerificationOutcome("VALID")
    sigma_x, sigma_yp = found
    ext_status = oracle.solve(
        assumptions=[x if sigma_x[x] else -x for x in instance.universals],
        **kwargs)
    if ext_status == UNSAT:
        return VerificationOutcome("FALSE", sigma_x=sigma_x)
    if ext_status != SAT:
        raise ResourceBudgetExceeded("extension SAT call budget")
    pi = oracle.model
    sigma_y = {y: pi[y] for y in instance.existentials}
    return VerificationOutcome("COUNTEREXAMPLE", sigma_x=sigma_x,
                               sigma_y=sigma_y, sigma_yp=sigma_yp)
