"""The :class:`Solver` half of the façade: reusable solve handles.

A ``Solver`` is built from an engine-spec name (the same registry the
portfolio and CLI use — ``repro.portfolio.parallel.ENGINE_SPECS``) or
from an explicit phase list plus config overrides, and is reused across
solves:

* :meth:`Solver.solve` runs one problem in-process and returns a
  :class:`~repro.api.solution.Solution`;
* :meth:`Solver.solve_batch` fans many problems over the portfolio
  worker pool (process isolation, hard timeouts, worker-side
  certification, resumable stores) and returns a :class:`BatchResult`;
* :meth:`Solver.subscribe` attaches typed-event listeners
  (:mod:`repro.api.events`) that observe both paths — in-process
  directly, and over the worker IPC pipe for batches, where each
  relayed event is stamped with its ``engine``/``instance`` identity;
* a :class:`~repro.api.cancellation.CancellationToken` interrupts
  ``solve`` at the next phase boundary (partial-bearing ``CANCELLED``
  result) and ``solve_batch`` at job granularity.

Module-level :func:`solve` and :func:`solve_batch` are the one-shot
conveniences; multi-engine campaigns pass several solvers to
:func:`solve_batch`.
"""

from repro.api.problem import Problem
from repro.api.solution import Solution
from repro.cache import cache_lookup, cache_store, ensure_cache
from repro.core.result import Status, SynthesisResult
from repro.portfolio.parallel import PipelineEngineSpec, \
    resolve_engine_spec
from repro.utils.errors import ReproError

__all__ = ["BatchResult", "Solver", "solve", "solve_batch"]


class Solver:
    """A reusable synthesis handle over one engine configuration.

    Parameters
    ----------
    engine:
        A registered engine-spec name (see
        :func:`repro.portfolio.engine_names`), or any object with
        ``name`` and ``run(instance, timeout)`` to wrap directly.
    seed:
        RNG seed baked into the engine.  For :meth:`solve_batch` a
        solver with ``seed=None`` and no customization is passed to the
        pool *by name*, which enables the campaign-level deterministic
        per-job seeding (identical results for any ``jobs`` value).
    phases / overrides / config:
        Customize a pipeline engine: an explicit phase list
        (:data:`repro.core.pipeline.DEFAULT_PHASE_NAMES` by default),
        ``Manthan3Config`` field overrides merged over the named spec's
        own, or a complete ``Manthan3Config`` (mutually exclusive with
        ``overrides``/``seed``).
    name:
        Label for records and event stamping; defaults to the engine
        name, so give customized solvers distinct names before batching
        them together.
    cache:
        A :class:`~repro.cache.store.SolutionCache` (or a path to one)
        consulted by :meth:`solve`: equivalent resubmissions — same
        instance up to variable renaming and clause/literal reordering —
        return a **proven** cached solution instead of a cold
        solve, and decisive cold results are stored back.  ``None``
        (the default) disables caching entirely.
    """

    def __init__(self, engine="manthan3", seed=None, phases=None,
                 overrides=None, config=None, name=None, cache=None):
        if config is not None and (overrides or seed is not None):
            raise ReproError(
                "pass either a complete config or seed/overrides, "
                "not both")
        self.seed = seed
        self.cache = ensure_cache(cache)
        self._listeners = []
        self._custom = bool(phases or overrides or config is not None)
        self._spec_name = engine if isinstance(engine, str) else None
        if isinstance(engine, str):
            spec = resolve_engine_spec(engine)  # incl. race:<a>+<b>
            if self._custom and not isinstance(spec, PipelineEngineSpec):
                raise ReproError(
                    "engine %r is not a pipeline engine; phases/"
                    "overrides/config do not apply" % engine)
            self.name = name or engine
            self._engine = self._build(spec, phases, overrides, config)
        else:
            if self._custom or seed is not None:
                raise ReproError(
                    "seed/phases/overrides/config only apply when the "
                    "engine is named by spec; configure the engine "
                    "object directly instead")
            self.name = name or getattr(engine, "name",
                                        type(engine).__name__)
            self._engine = engine
            self._custom = True  # objects are always shipped as-is

    def _build(self, spec, phases, overrides, config):
        from repro.core import Manthan3

        if config is not None:
            engine = Manthan3(config, phases=phases or spec.phases)
        elif phases or overrides:
            merged = dict(spec.overrides)
            merged.update(overrides or {})
            custom = PipelineEngineSpec(self.name, overrides=merged,
                                        phases=phases or spec.phases)
            engine = custom.build(self.seed)
        else:
            engine = spec.build(self.seed)
        engine.name = self.name
        return engine

    @property
    def engine(self):
        """The underlying engine object (built once, reused)."""
        return self._engine

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def subscribe(self, listener):
        """Attach ``listener`` (called with every solve event).

        Returns the listener so ``solver.subscribe(events.append)``
        composes.  Listener exceptions never affect the solve (they are
        counted under ``stats["listener_errors"]``).
        """
        self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener):
        """Detach a previously subscribed listener."""
        self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, problem, timeout=None, cancel=None):
        """Solve one problem in-process; returns a :class:`Solution`.

        ``problem`` may be a :class:`Problem`, a ``DQBFInstance``,
        (D)QDIMACS text, or a file path (see :meth:`Problem.load`).
        ``cancel`` interrupts pipeline engines at the next phase or
        repair-iteration boundary with a partial-bearing ``CANCELLED``
        result; for non-pipeline engines it is only honored between
        runs.

        With a ``cache`` configured, the cache is consulted first: a
        hit is proven for *this* instance before it is
        returned (``solution.certified`` is ``True``, and
        ``stats["cache"]`` records the fingerprint and certification
        time); on a miss the cold solve runs exactly as without a
        cache, its decisive outcome is stored back, and the result is
        stamped with the miss's ``stats["cache"]`` block.
        """
        problem = Problem.load(problem)
        cache_info = None
        if self.cache is not None:
            cached, cache_info = cache_lookup(self.cache,
                                              problem.instance)
            if cached is not None:
                return Solution(problem, cached, engine=self.name,
                                certified=True)
        engine = self._engine
        if getattr(engine, "supports_events", False):
            result = engine.run(problem.instance, timeout=timeout,
                                listeners=tuple(self._listeners) or None,
                                cancel=cancel)
        else:
            if cancel is not None and cancel.cancelled:
                result = SynthesisResult(Status.CANCELLED,
                                         reason="cancelled by caller")
            else:
                result = engine.run(problem.instance, timeout=timeout)
        if self.cache is not None:
            cache_store(self.cache, problem.instance, result)
            result.stats["cache"] = cache_info
        return Solution(problem, result, engine=self.name)

    def solve_batch(self, problems, timeout=None, jobs=1, seed=None,
                    certify=True, certificate_budget=200_000, store=None,
                    resume=False, progress=None, cancel=None,
                    max_retries=0, retry_backoff=0.25,
                    memory_limit_mb=None, elastic=False, worker_id=None,
                    lease_duration=30.0, solution_cache=None):
        """Solve many problems through the portfolio pool.

        Delegates to :func:`solve_batch` with this solver alone, so the
        returned :class:`BatchResult`'s ``solutions`` list aligns with
        ``problems``.  ``seed`` is the campaign seed for per-job
        seeding (defaults to this solver's own seed).
        ``solution_cache`` defaults to this solver's own ``cache``.
        """
        return solve_batch(problems, [self], timeout=timeout, jobs=jobs,
                           seed=self.seed if seed is None else seed,
                           certify=certify,
                           certificate_budget=certificate_budget,
                           store=store, resume=resume, progress=progress,
                           cancel=cancel, max_retries=max_retries,
                           retry_backoff=retry_backoff,
                           memory_limit_mb=memory_limit_mb,
                           elastic=elastic, worker_id=worker_id,
                           lease_duration=lease_duration,
                           solution_cache=self.cache
                           if solution_cache is None else solution_cache)

    def _portfolio_entry(self):
        """What to hand the campaign scheduler for this solver.

        Registry-pure unseeded solvers under their registry name go by
        *name* (workers rebuild them with deterministic per-job seeds);
        anything customized, seeded, or renamed ships the engine object
        itself (records must carry the display name, which the registry
        does not know).
        """
        if not self._custom and self.seed is None \
                and self.name == self._spec_name:
            return self.name
        return self._engine

    def __repr__(self):
        return "Solver(%r%s)" % (self.name,
                                 ", seed=%r" % self.seed
                                 if self.seed is not None else "")


class BatchResult:
    """Outcome of one :func:`solve_batch` campaign.

    ``table`` is the portfolio
    :class:`~repro.portfolio.runner.ResultTable` (feed it to
    ``repro.portfolio``'s VBS analytics or report renderer unchanged);
    :meth:`solution_for` and :attr:`solutions` give the per-problem
    :class:`Solution` view.  Records resumed from a store carry
    status/stats but no function vectors (the JSONL store does not
    persist expressions) — their solutions have ``functions=None``.
    """

    def __init__(self, problems, solvers, table):
        self.problems = problems
        self.solvers = solvers
        self.table = table

    def solution_for(self, problem, solver=None):
        """The :class:`Solution` of ``problem`` (name or object) under
        ``solver`` (name or object; defaults to the only solver)."""
        if solver is None:
            if len(self.solvers) != 1:
                raise ReproError(
                    "this batch ran %d solvers; pass solver= to pick one"
                    % len(self.solvers))
            solver = self.solvers[0]
        engine_name = solver if isinstance(solver, str) else solver.name
        if isinstance(problem, str):
            wanted = problem
            problem = next((p for p in self.problems
                            if p.name == wanted), None)
            if problem is None:
                raise ReproError("no problem named %r in this batch"
                                 % wanted)
        problem = Problem.load(problem)
        record = self.table.record_for(engine_name, problem.name)
        if record is None:
            raise ReproError("no record for (%s, %s)"
                             % (engine_name, problem.name))
        result = getattr(record, "result", None)
        if result is None:
            result = SynthesisResult(record.status, stats=record.stats,
                                     reason=record.reason)
        return Solution(problem, result, engine=engine_name,
                        certified=record.certified)

    @property
    def solutions(self):
        """Single-solver view: one :class:`Solution` per problem, in
        the order the problems were submitted."""
        if len(self.solvers) != 1:
            raise ReproError(
                "this batch ran %d solvers; use solution_for(problem, "
                "solver=...)" % len(self.solvers))
        return [self.solution_for(p) for p in self.problems]

    def __repr__(self):
        return "BatchResult(%d problems x %d solvers)" % (
            len(self.problems), len(self.solvers))


def solve(problem, engine="manthan3", seed=None, timeout=None,
          listeners=None, cancel=None, **solver_kwargs):
    """One-shot convenience: build a :class:`Solver`, solve, return the
    :class:`Solution`."""
    solver = Solver(engine, seed=seed, **solver_kwargs)
    for listener in listeners or ():
        solver.subscribe(listener)
    return solver.solve(problem, timeout=timeout, cancel=cancel)


def solve_batch(problems, solvers, timeout=None, jobs=1, seed=None,
                certify=True, certificate_budget=200_000, store=None,
                resume=False, progress=None, cancel=None,
                max_retries=0, retry_backoff=0.25,
                memory_limit_mb=None, elastic=False, worker_id=None,
                lease_duration=30.0, solution_cache=None):
    """Run every solver on every problem through the portfolio pool.

    The scheduling, isolation, certification, persistence and resume
    semantics are exactly :func:`repro.portfolio.parallel.run_campaign`
    (this *is* that pool); on top of it, subscribed listeners of each
    solver receive the worker-relayed event streams, stamped with
    ``engine``/``instance``, and ``cancel`` aborts the campaign at job
    granularity (running workers terminated, remaining jobs recorded as
    ``CANCELLED``).

    ``progress`` is called with each finished
    :class:`~repro.portfolio.runner.RunRecord` (resumed records load
    silently, matching ``run_campaign``).  ``max_retries``/
    ``retry_backoff`` re-run killed or crashed pool jobs, and
    ``memory_limit_mb`` caps each worker's address space — the
    resilience knobs of ``run_campaign``, passed through verbatim.
    Returns a :class:`BatchResult`.

    ``solution_cache`` (a :class:`~repro.cache.store.SolutionCache` or
    a path) lets the campaign answer equivalent resubmissions from the
    certified solution cache: hits are proven parent-side and
    recorded without ever entering the pool, misses run cold exactly as
    without a cache (and are stamped with their ``stats["cache"]``
    block), and decisive cold outcomes are stored back.

    ``elastic=True`` joins (or starts) a shared multi-worker campaign
    instead of running a private pool: this process becomes one
    :class:`~repro.portfolio.elastic.ElasticWorker` identified by
    ``worker_id``, claiming jobs through the lease log next to
    ``store`` (required) and cooperating with any other workers on the
    same store — see :mod:`repro.portfolio.elastic`.  Elastic
    campaigns need registry-pure solvers (plain engine names, no
    seed/overrides/custom names): every worker must be able to rebuild
    each engine from the shared log alone.  ``cancel`` maps to a
    graceful drain, and the returned table is the merged campaign
    (complete when this worker saw it finish; its records come from
    disk, so their solutions carry no function vectors).
    """
    from repro.portfolio.parallel import run_campaign

    problems = [Problem.load(p) for p in problems]
    names = [p.name for p in problems]
    if len(set(names)) != len(names):
        raise ReproError("problems must have unique names for batch "
                         "solving (records are keyed by name; "
                         "duplicate in %r)" % names)
    solvers = list(solvers)
    if isinstance(solvers[0] if solvers else None, str) \
            or any(isinstance(s, str) for s in solvers):
        solvers = [Solver(s) if isinstance(s, str) else s
                   for s in solvers]
    solver_names = [s.name for s in solvers]
    if len(set(solver_names)) != len(solver_names):
        raise ReproError("solvers must have unique names (duplicate in "
                         "%r); pass name= to distinguish them"
                         % solver_names)

    by_name = dict(zip(solver_names, solvers))
    event_sink = None
    if any(s._listeners for s in solvers):
        def event_sink(engine_name, instance_name, event):
            event.engine = engine_name
            event.instance = instance_name
            solver = by_name.get(engine_name)
            if solver is not None:
                for listener in solver._listeners:
                    try:
                        listener(event)
                    except Exception:
                        pass  # observation must not sink the campaign

    if elastic:
        from repro.portfolio.elastic import run_elastic_worker
        from repro.portfolio.store import CampaignStore

        if store is None:
            raise ReproError("elastic campaigns need a shared store "
                             "(pass store=)")
        entries = [s._portfolio_entry() for s in solvers]
        impure = [s.name for s, entry in zip(solvers, entries)
                  if not isinstance(entry, str)]
        if impure:
            raise ReproError(
                "elastic campaigns need registry-pure solvers (plain "
                "engine names, no seed/overrides/custom names) so "
                "every worker can rebuild them; offending: %r" % impure)
        store_path = store.path if isinstance(store, CampaignStore) \
            else store
        summary = run_elastic_worker(
            [p.instance for p in problems], entries, store_path,
            worker_id=worker_id, timeout=timeout, seed=seed,
            certify=certify, certificate_budget=certificate_budget,
            lease_duration=lease_duration, progress=progress,
            event_sink=event_sink, cancel=cancel,
            solution_cache=solution_cache)
        table = summary["table"]
        if table is None:  # drained before completion: partial view
            from repro.portfolio.elastic import merge_shards

            table = merge_shards(store_path, write=False)
        return BatchResult(problems, solvers, table)

    table = run_campaign(
        [p.instance for p in problems],
        [s._portfolio_entry() for s in solvers],
        timeout=timeout, certify=certify,
        certificate_budget=certificate_budget, jobs=jobs, seed=seed,
        store=store, resume=resume, progress=progress,
        event_sink=event_sink, cancel=cancel, keep_results=True,
        max_retries=max_retries, retry_backoff=retry_backoff,
        memory_limit_mb=memory_limit_mb, solution_cache=solution_cache)
    return BatchResult(problems, solvers, table)
