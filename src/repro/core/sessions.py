"""Incremental oracle sessions: the persistent solvers behind the loop.

The verify–repair loop is oracle-bound, and a fresh oracle per call
pays full price: a new Tseitin encoding and a new CDCL solver,
discarding learnt clauses, VSIDS activity, and phase state each time.
This module keeps **two long-lived solver sessions** per engine run
instead (MiniSat-style incremental solving under assumptions):

* :class:`VerifierSession` — one persistent solver for the error
  formula ``E(X, Y') = ¬ϕ ∧ ⋀(y ↔ f_y)``.  ``¬ϕ`` is encoded once,
  permanently; each ``y ↔ f_y`` link lives in its own solver clause
  group.  When repair replaces ``f_y``, only that group is released and
  the new candidate's *new* subtree is encoded — the shared encoder's
  structural memo reuses every Tseitin variable of the untouched parts.
* :class:`MatrixSession` — one persistent solver over ``ϕ`` shared by
  every assumption-driven matrix oracle: the verification extension
  check, ``repair_iteration``'s per-candidate ``Gk`` checks, and
  ``FindCandi``'s MaxSAT calls (Fu–Malik on the session solver, with
  ``σ[X]`` as assumptions; each call's relaxation clauses sit in one
  clause group that the call releases, and the variables it reserved
  are fixed at level 0).  So every query decides only variables that
  are still live.  Preprocessing's unate checks need ``¬ϕ`` over a
  second variable copy; that *dual rail* (primed copy + per-variable
  equality selectors) gets its own solver (:class:`DualRail`), built on
  the first unate check and dropped the moment preprocessing ends, so
  none of its variables ever reaches the session solver.

Both sessions expose ``stats()`` so the engine can report per-oracle
call/conflict/encode-reuse counters.  They are the engine's only
oracle path; the session-free kernels (``verify_candidates`` and
``detect_unates`` called without sessions) remain as the references
the session tests compare against.

Both sessions are written against the :class:`~repro.sat.backend.
SatBackend` protocol, not the concrete CDCL: ``Manthan3Config.
sat_backend`` selects the oracle implementation (the reference
``python`` backend by default), and everything a session touches —
groups, assumptions, cores, budgets, the ``stats()`` counters — is
protocol surface, so an alternative backend drops in without changes
here.

Backend failure mid-run (:class:`~repro.sat.backend.
BackendUnavailableError`, ``MemoryError``) is survivable: both
sessions keep everything needed to rebuild — the instance/matrix, the
committed units, the hash-consed candidate exprs — so on failure they
walk ``Manthan3Config.sat_backend_fallbacks``, construct the next
backend in the chain, replay their permanent state, and run the
interrupted query again from its start (a whole ``FindCandi`` call, a
whole unate check).  The failed solver's RNG object is carried over, so
a backend that dies before consuming randomness hands the unconsumed
stream to its replacement.  Failovers are counted per session and
surface under ``stats["oracle"]["failovers"]``.
"""

from repro.formula.tseitin import SolverSink, TseitinEncoder, \
    negated_cnf_expr
from repro.sat.backend import BackendUnavailableError, make_backend
from repro.sat.solver import UNSAT
from repro.utils.rng import spawn

__all__ = ["DualRail", "MatrixSession", "VerifierSession",
           "build_sessions"]

#: Backend failures a session recovers from by rebuilding on the
#: fallback chain.  Everything else propagates unchanged.
_ORACLE_FAILURES = (BackendUnavailableError, MemoryError)


def build_sessions(ctx):
    """Attach the run's oracle sessions to the synthesis context.

    Builds one :class:`MatrixSession` and one :class:`VerifierSession`
    on the configured SAT backend, seeded from the context's dedicated
    oracle stream, so the root sampler/preprocess/loop streams are
    untouched.
    """
    backend = ctx.config.sat_backend
    fallbacks = ctx.config.sat_backend_fallbacks
    ctx.matrix_session = MatrixSession(ctx.instance.matrix,
                                       rng=spawn(ctx.oracle_rng, 1),
                                       backend=backend,
                                       fallbacks=fallbacks)
    ctx.verifier_session = VerifierSession(ctx.instance,
                                           rng=spawn(ctx.oracle_rng, 2),
                                           backend=backend,
                                           fallbacks=fallbacks)
    ctx.sessions = [("matrix", ctx.matrix_session),
                    ("verifier", ctx.verifier_session)]


class VerifierSession:
    """Persistent E-solver across verification rounds.

    Parameters
    ----------
    instance:
        The :class:`~repro.dqbf.instance.DQBFInstance` under synthesis.
    rng:
        Seed or RNG for the solver's randomized heuristics (fixed for
        the session's lifetime).
    backend:
        :mod:`repro.sat.backend` name of the oracle implementation.
    fallbacks:
        Backend names tried, in order, when the live backend fails
        (see :meth:`_failover`); empty means fail fast.
    """

    def __init__(self, instance, rng=None, backend="python",
                 fallbacks=()):
        self.instance = instance
        self._fallbacks = list(fallbacks)
        self.failovers = 0
        self._retired_conflicts = 0
        self.calls = 0
        self.simulated = 0     # rounds answered by simulation, no call
        self.groups_released = 0
        self._install(backend, rng)

    def _install(self, backend, rng):
        """(Re)build the solver and its permanent ``¬ϕ`` encoding."""
        self.solver = make_backend(backend, rng=rng)
        self.solver.ensure_vars(self.instance.matrix.num_vars)
        self._sink = SolverSink(self.solver)
        self.encoder = TseitinEncoder(self._sink)
        # ¬ϕ never changes: encode it once, permanently.
        self.encoder.assert_expr(negated_cnf_expr(self.instance.matrix))
        self._groups = {}      # y -> live solver clause group
        self._current = {}     # y -> candidate expr currently linked

    def _failover(self, exc):
        """Swap the dead solver for the next fallback-chain backend.

        The replacement inherits the dead solver's RNG object (the
        unconsumed stream continues) and banks its conflict counter so
        :meth:`stats` stays monotone.  Candidate links are *not*
        replayed here — ``_install`` clears ``_current``, so the next
        :meth:`sync` re-encodes every candidate from the retained
        exprs.  Re-raises ``exc`` once the chain is exhausted.
        """
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

    def sync(self, candidates):
        """Re-assert ``y ↔ f_y`` for every candidate that changed.

        Candidate expressions are hash-consed, so identity comparison
        detects change exactly; an unchanged candidate keeps its group
        and costs nothing.
        """
        for y in self.instance.existentials:
            expr = candidates[y]
            if self._current.get(y) is expr:
                continue
            old = self._groups.get(y)
            if old is not None:
                self.solver.release_group(old)
                self.groups_released += 1
            literal = self.encoder.encode(expr)
            group = self.solver.new_group()
            self.solver.add_clause((-y, literal), group=group)
            self.solver.add_clause((y, -literal), group=group)
            self._groups[y] = group
            self._current[y] = expr

    def solve(self, candidates, deadline=None):
        """One verification oracle call against the current candidates.

        Backend failure anywhere in the call — during the incremental
        re-link or inside the solve itself — triggers a failover and a
        full retry: the rebuilt solver re-links every candidate, then
        the query runs again.
        """
        while True:
            try:
                self.sync(candidates)
                self.calls += 1
                return self.solver.solve(deadline=deadline)
            except _ORACLE_FAILURES as exc:
                self._failover(exc)

    @property
    def model(self):
        return self.solver.model

    def stats(self):
        counters = self.solver.stats()
        return {
            "calls": self.calls,
            "simulated": self.simulated,
            "conflicts": counters["conflicts"] + self._retired_conflicts,
            "groups_released": self.groups_released,
            "encode_hits": self.encoder.hits,
            "encode_misses": self.encoder.misses,
            "failovers": self.failovers,
        }


class DualRail:
    """The unate checks' own solver: ``ϕ``, the committed units, and
    ``¬ϕ`` over a primed variable copy.

    For every matrix variable ``v`` there is a primed twin ``v'`` and an
    equality selector ``e_v`` with ``e_v → (v ↔ v')``; ``¬ϕ`` over the
    primed variables is Tseitin-encoded to the literal ``neg_out``.  A
    unate check is then a single assumption query — no formula
    construction per check.
    """

    def __init__(self, matrix, units, backend, rng=None):
        self.solver = solver = make_backend(backend, matrix, rng=rng)
        for literal in units:
            solver.add_clause((literal,))
        variables = range(1, matrix.num_vars + 1)
        self.prime = {v: solver.reserve_var() for v in variables}
        self.eq = {v: solver.reserve_var() for v in variables}
        for v in variables:
            vp, ev = self.prime[v], self.eq[v]
            solver.add_clause((-ev, -v, vp))
            solver.add_clause((-ev, v, -vp))
        encoder = TseitinEncoder(SolverSink(solver))
        self.neg_out = encoder.encode(
            negated_cnf_expr(matrix.relabeled(self.prime)))

    def solve(self, y, positive, deadline=None):
        """Is ``ϕw|_{y=¬v} ∧ ¬(ϕw|_{y=v})`` satisfiable?  (``v =
        positive``; ``ϕw`` is ``ϕ`` plus the units, which the primed
        side sees through the assumed equality selectors.)"""
        assumptions = [self.neg_out]
        assumptions += [e for v, e in self.eq.items() if v != y]
        if positive:
            assumptions += [-y, self.prime[y]]
        else:
            assumptions += [y, -self.prime[y]]
        return self.solver.solve(assumptions=assumptions, deadline=deadline)


class MatrixSession:
    """One persistent solver over ``ϕ`` for every matrix-side oracle.

    The extension check and the ``Gk`` repair checks are assumption
    queries against ``ϕ`` (:meth:`solve`); ``FindCandi`` runs Fu–Malik
    on the same solver through :meth:`run`.  Unate checks run on a
    :class:`DualRail` of their own; see :meth:`unate_check`.

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
        self._dual = None      # the unate checks' DualRail, while live
        self.calls = {}
        self._install(backend, rng)

    def _install(self, backend, rng):
        """(Re)build the solver: ``ϕ`` plus every committed unit."""
        self.backend = backend
        self.solver = make_backend(backend, self.matrix, rng=rng)
        for literal in self._units:
            self.solver.add_clause((literal,))

    def _bank(self, solver):
        """Fold a solver's conflicts into the session's running total
        before the solver is dropped (a dead backend may not answer)."""
        try:
            self._retired_conflicts += solver.stats()["conflicts"]
        except Exception:
            pass

    def _failover(self, exc):
        """Swap the dead backend for the next one in the fallback chain,
        carrying over the session solver's RNG object and banking its
        conflicts; see :meth:`VerifierSession._failover`.  The dual rail
        is dropped too; the next :meth:`unate_check` rebuilds it on the
        new backend."""
        rng = getattr(self.solver, "rng", None)
        self._bank(self.solver)
        self.retire_dual()
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
        ``query``).
        """
        while True:
            self.calls[purpose] = self.calls.get(purpose, 0) + 1
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
        committed list on the replacement backend, and so does the next
        :class:`DualRail` built.
        """
        self._units.append(literal)
        try:
            self.solver.add_clause((literal,))
            if self._dual is not None:
                self._dual.solver.add_clause((literal,))
        except _ORACLE_FAILURES as exc:
            self._failover(exc)

    def unate_check(self, y, positive, deadline=None):
        """Is ``ϕw|_{y=¬v} ∧ ¬(ϕw|_{y=v})`` UNSAT?  (``v = positive``.)

        ``ϕw`` is ``ϕ`` plus the units committed so far, which matches
        the session-free cofactor check's working-matrix semantics.  The
        first check builds the :class:`DualRail` on the session's
        backend.  Returns ``True`` only on a definitive UNSAT (an
        exhausted budget is *not* unate, as in the cofactor check).
        """
        def query(_):
            if self._dual is None:
                self._dual = DualRail(self.matrix, self._units,
                                      self.backend,
                                      rng=getattr(self.solver, "rng", None))
            return self._dual.solve(y, positive, deadline=deadline)

        return self.run("unate", query) == UNSAT

    def retire_dual(self):
        """Drop the unate checks' solver once preprocessing is over."""
        if self._dual is not None:
            self._bank(self._dual.solver)
            self._dual = None

    def stats(self):
        out = {"calls_%s" % k: v for k, v in sorted(self.calls.items())}
        conflicts = self.solver.stats()["conflicts"] + self._retired_conflicts
        if self._dual is not None:
            conflicts += self._dual.solver.stats()["conflicts"]
        out["conflicts"] = conflicts
        out["failovers"] = self.failovers
        return out
