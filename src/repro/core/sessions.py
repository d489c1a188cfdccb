"""The persistent matrix solver behind the loop, and the clause-wise
query helper it shares with the verifier.

The verify–repair loop is oracle-bound, and a fresh oracle per call
pays full price: a new CDCL solver, discarding learnt clauses, VSIDS
activity, and phase state each time.  Every matrix-side oracle asks
about the same ``ϕ`` many times per run, so this module keeps **one
long-lived solver session** over it (MiniSat-style incremental solving
under assumptions):

* :class:`MatrixSession` — one persistent solver over ``ϕ`` shared by
  every assumption-driven matrix oracle: the verification extension
  check, ``repair_iteration``'s per-candidate ``Gk`` checks,
  ``FindCandi``'s MaxSAT calls (Fu–Malik on the session solver, with
  ``σ[X]`` as assumptions; each call's relaxation clauses sit in one
  clause group that the call releases, and the variables it reserved
  are fixed at level 0), and preprocessing's unate checks.  A unate
  check asks whether ``ϕw|_{y=¬v} ∧ ¬ϕ|_{y=v}`` is satisfiable (``ϕw``
  is ``ϕ`` plus the committed units, none of which is on ``y``).  With
  ``ℓ = (¬y if v else y)``, the literal ``y=v`` makes false, only a
  clause ``c ∋ ℓ`` can be false under ``y=v``: a clause without ``y``
  has the same value under both cofactors, and a clause with ``¬ℓ`` is
  true under ``y=v``.  So the check is SAT iff some such ``c`` has
  ``ϕw ∧ ℓ ∧ ¬(c∖ℓ)`` SAT — one assumption query per clause
  (:func:`_solve_each`), and the session solver never holds a variable
  outside ``ϕ``.

The verifier's E-check (:func:`repro.core.verifier.e_check`) keeps no
session: random simulation answers almost every round, so each check
simulation leaves unanswered builds one fresh solver holding the
candidate links and runs the same clause-wise loop over ``¬ϕ``.

The session exposes ``stats()`` so the engine can report per-oracle
call/conflict counters.  It is the engine's only matrix oracle path;
the session-free kernel (``detect_unates`` called without a session)
remains as the reference the session tests compare against.

The session is written against the :class:`~repro.sat.backend.
SatBackend` protocol, not the concrete CDCL: ``Manthan3Config.
sat_backend`` selects the oracle implementation (the reference
``python`` backend by default), and everything the session touches —
groups, assumptions, cores, budgets, the ``stats()`` counters — is
protocol surface, so an alternative backend drops in without changes
here.

Backend failure mid-run (:class:`~repro.sat.backend.
BackendUnavailableError`, ``MemoryError``) is survivable: the session
keeps everything needed to rebuild — the matrix and the committed
units — so on failure it walks ``Manthan3Config.sat_backend_fallbacks``,
constructs the next backend in the chain, replays its permanent state,
and runs the interrupted query again from its start (a whole
``FindCandi`` call, a whole unate check).  The failed solver's RNG
object is carried over, so a backend that dies before consuming
randomness hands the unconsumed stream to its replacement.  Failovers
are counted per oracle and surface under
``stats["oracle"]["failovers"]``.
"""

from repro.sat.backend import BackendUnavailableError, make_backend
from repro.sat.solver import UNKNOWN, UNSAT
from repro.utils.rng import spawn

__all__ = ["MatrixSession", "build_sessions"]

#: Backend failures an oracle recovers from by moving along the
#: fallback chain.  Everything else propagates unchanged.
_ORACLE_FAILURES = (BackendUnavailableError, MemoryError)


def build_sessions(ctx):
    """Attach the run's oracle state to the synthesis context.

    Builds the :class:`MatrixSession` on the configured SAT backend and
    draws the RNG object every fresh E-solver of the run takes, both
    from the context's dedicated oracle stream, so the root
    sampler/preprocess/loop streams are untouched.
    """
    ctx.matrix_session = MatrixSession(
        ctx.instance.matrix, rng=spawn(ctx.oracle_rng, 1),
        backend=ctx.config.sat_backend,
        fallbacks=ctx.config.sat_backend_fallbacks)
    ctx.verifier_rng = spawn(ctx.oracle_rng, 2)


def _solve_each(solver, queries, deadline):
    """Run assumption ``queries`` in order until one is not UNSAT.

    Returns ``UNSAT`` only when every query answered ``UNSAT``;
    otherwise the first other answer — ``SAT`` with the solver's model
    standing, or ``UNKNOWN``, also when ``deadline`` expires between
    queries.
    """
    for assumptions in queries:
        if deadline is not None and deadline.expired():
            return UNKNOWN
        status = solver.solve(assumptions=assumptions, deadline=deadline)
        if status != UNSAT:
            return status
    return UNSAT


class MatrixSession:
    """One persistent solver over ``ϕ`` for every matrix-side oracle.

    The extension check and the ``Gk`` repair checks are assumption
    queries against ``ϕ`` (:meth:`solve`); ``FindCandi`` runs Fu–Malik
    on the same solver through :meth:`run`, and so does each unate
    check (:meth:`unate_check`).

    Unate constants found during preprocessing are committed with
    :meth:`add_unit` — sound for every later query because a unate
    output's constant, by definition, preserves (ex)tensibility of
    every X assignment (and so the optimum of every ``FindCandi`` over
    the other outputs), and because the committed value is exactly the
    retired candidate the rest of the loop carries for that variable.
    """

    def __init__(self, matrix, rng=None, backend="python", fallbacks=()):
        self.matrix = matrix
        self._fallbacks = list(fallbacks)
        self.failovers = 0
        self._retired_conflicts = 0
        self._units = []       # committed units, replayed on failover
        self.calls = {}
        self._install(backend, rng)

    def _install(self, backend, rng):
        """(Re)build the solver: ``ϕ`` plus every committed unit."""
        self.solver = make_backend(backend, self.matrix, rng=rng)
        for literal in self._units:
            self.solver.add_clause((literal,))

    def _failover(self, exc):
        """Swap the dead backend for the next one in the fallback chain,
        carrying over the session solver's RNG object (the unconsumed
        stream continues) and banking its conflicts so :meth:`stats`
        stays monotone.  Re-raises ``exc`` once the chain is
        exhausted."""
        rng = getattr(self.solver, "rng", None)
        try:
            self._retired_conflicts += self.solver.stats()["conflicts"]
        except Exception:
            pass
        while self._fallbacks:
            name = self._fallbacks.pop(0)
            try:
                self._install(name, rng)
            except BackendUnavailableError:
                continue
            self.failovers += 1
            return
        raise exc

    def run(self, purpose, query):
        """``query(solver)`` on the session solver; ``purpose`` tags the
        stats.

        On backend failure the session fails over and runs the whole
        query again on the rebuilt solver, which holds the same ``ϕ``
        and units — so a query must keep no solver state between
        attempts (a ``FindCandi`` call opens its clause group inside
        ``query``).  ``calls`` counts the query once however many
        attempts it takes; each attempt lost is a failover.
        """
        self.calls[purpose] = self.calls.get(purpose, 0) + 1
        while True:
            try:
                return query(self.solver)
            except _ORACLE_FAILURES as exc:
                self._failover(exc)

    def solve(self, assumptions, purpose="matrix", deadline=None):
        """Assumption query against ``ϕ``, retried through the fallback
        chain (see :meth:`run`)."""
        return self.run(purpose, lambda solver: solver.solve(
            assumptions=assumptions, deadline=deadline))

    @property
    def model(self):
        return self.solver.model

    @property
    def core(self):
        return self.solver.core

    def add_unit(self, literal):
        """Permanently commit a unit (unate constants).

        The unit is recorded before it reaches a solver, so a failover
        mid-add still replays it — ``_install`` asserts the full
        committed list on the replacement backend.
        """
        self._units.append(literal)
        try:
            self.solver.add_clause((literal,))
        except _ORACLE_FAILURES as exc:
            self._failover(exc)

    def unate_check(self, y, positive, deadline=None):
        """Is ``ϕw|_{y=¬v} ∧ ¬(ϕw|_{y=v})`` UNSAT?  (``v = positive``.)

        ``ϕw`` is ``ϕ`` plus the units committed so far, which matches
        the session-free cofactor check's working-matrix semantics.
        ``y`` is never among the units, so with ``ℓ = (¬y if v else
        y)`` the check runs one query ``ϕw ∧ ℓ ∧ ¬(c∖ℓ)`` per matrix
        clause ``c ∋ ℓ`` (a clause also holding ``¬ℓ`` is true under
        ``y=v`` and is skipped), all inside one :meth:`run`, so a
        failover reruns the whole check.  Returns ``True`` only when
        every query answered UNSAT (an exhausted budget, or a deadline
        expiring between queries, is *not* unate, as in the cofactor
        check); a ``y`` with no clause ``c ∋ ℓ`` needs no query.
        """
        lit = -y if positive else y
        queries = [[lit] + [-l for l in c if l != lit]
                   for c in self.matrix.clauses
                   if lit in c and -lit not in c]

        return self.run("unate", lambda solver: _solve_each(
            solver, queries, deadline) == UNSAT)

    def stats(self):
        out = {"calls_%s" % k: v for k, v in sorted(self.calls.items())}
        out["conflicts"] = \
            self.solver.stats()["conflicts"] + self._retired_conflicts
        out["failovers"] = self.failovers
        return out
