"""The staged synthesis pipeline: Algorithm 1 as composable phases.

The paper's Algorithm 1 is a staged loop — sample, preprocess, learn,
order, verify/repair.  This module makes each stage a first-class
:class:`Phase` with a uniform ``run(ctx) -> None | Finish`` signature
over a shared :class:`~repro.core.context.SynthesisContext`, and a
:class:`Pipeline` that executes a phase list with:

* **per-phase timing** — every phase's wall time is recorded under
  ``stats["phases"]``, whatever the verdict;
* **one deadline** — the run's wall-clock budget, which every phase
  after the unit fast path polls as it starts; whichever phase it
  expires in, the run ends as ``TIMEOUT``;
* **anytime partials** — ``TIMEOUT``/``UNKNOWN`` results carry the
  context's accumulated stats and the best-so-far candidate vector
  (:attr:`~repro.core.result.SynthesisResult.partial_functions`)
  instead of an empty shell;
* **structural ablation** — an engine variant is a phase list plus
  config overrides (see ``ENGINE_SPECS`` in
  :mod:`repro.portfolio.parallel`), not a code fork: e.g.
  ``manthan3-nopre`` is the default list minus ``"preprocess"``.  A
  list that drops a phase a later one reads from (``learn`` needs
  ``sample``, ``order`` needs ``learn``, ``verify_repair`` needs
  ``order``) is refused when the pipeline is built; only the first
  phase may start from a context the caller prepared
  (:class:`~repro.core.engine.Manthan3`, which always builds a fresh
  one, refuses that too).

The default phase list's trajectory — statuses *and* functions — is
pinned by a SHA-256 digest (``tests/trajectory.py``) that is identical
across processes; ``tests/core/test_pipeline.py`` and
``tests/integration/test_determinism.py`` check it.
"""

from repro.core.candidates import run_learning
from repro.core.context import Finish
from repro.core.events import (
    CounterexampleFound,
    PartialAvailable,
    PhaseFinished,
    PhaseStarted,
    RepairRound,
    SolveFinished,
)
from repro.core.order import run_find_order, substitute_candidates
from repro.core.preprocess import run_preprocess
from repro.core.repair import run_repair
from repro.core.result import Status, SynthesisResult
from repro.core.selfsub import run_self_substitution
from repro.core.sessions import build_sessions
from repro.core.verifier import run_verify
from repro.formula.bitvec import EvalProgram, SampleMatrix
from repro.formula.simplify import propagate_units
from repro.sampling import Sampler
from repro.utils.errors import (
    OperationCancelled,
    ReproError,
    ResourceBudgetExceeded,
)
from repro.utils.timer import Stopwatch

__all__ = ["DEFAULT_PHASE_NAMES", "PHASES", "Phase", "Pipeline"]

#: ``reason`` of each ``UNKNOWN`` exit of the verify–repair loop; stores
#: persist it and the campaign report counts by it.
REPAIR_CYCLED = "repair cycled: a repaired counterexample recurred"
REPAIR_STAGNATED = "repair stagnated (incompleteness, paper §5)"
REPAIR_CAP = "repair iteration budget exhausted"

#: Repair rounds in a row that modify no candidate before the loop
#: declares itself stuck (the paper's incompleteness case, §5).
STAGNATION_LIMIT = 3


class Phase:
    """One named pipeline stage.

    ``run(ctx)`` mutates the shared context and returns ``None`` to
    continue or a :class:`~repro.core.context.Finish` to end the run.
    """

    __slots__ = ("name", "fn")

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn

    def run(self, ctx):
        return self.fn(ctx)

    def __repr__(self):
        return "Phase(%s)" % self.name


#: name -> :class:`Phase`, populated by the ``@_phase`` definitions
#: below.  Pipeline specs refer to phases by these names.
PHASES = {}


def _phase(name):
    def register(fn):
        PHASES[name] = Phase(name, fn)
        return fn
    return register


# ----------------------------------------------------------------------
# the phases of Algorithm 1
# ----------------------------------------------------------------------
@_phase("unit_fastpath")
def unit_fastpath(ctx):
    """Fast path: if unit propagation on ϕ alone forces a universal
    variable, flipping that variable yields an inextensible X
    assignment — the instance is False with a checkable witness."""
    instance = ctx.instance
    units = {}
    _, up_conflict = propagate_units(list(instance.matrix.clauses), units)
    if up_conflict:
        return Finish(Status.FALSE, reason="matrix is unsatisfiable")
    for x in instance.universals:
        if x in units:
            witness = {u: False for u in instance.universals}
            witness[x] = not units[x]
            return Finish(Status.FALSE,
                          reason="matrix forces universal x%d" % x,
                          witness=witness)


@_phase("sample")
def sample(ctx):
    """Data generation (Algorithm 1, line 1).

    Builds the oracle sessions first — so every oracle from here on,
    sampler included, is session-backed — then draws the training set.
    The draw packs straight into a column-major :class:`SampleMatrix`;
    the learner never sees a per-sample dict.
    """
    build_sessions(ctx)
    config = ctx.config
    weighted = ctx.instance.existentials if config.adaptive_sampling else ()
    ctx.sampler = Sampler(ctx.instance.matrix, rng=ctx.spawn(1),
                          weighted_vars=weighted,
                          backend=config.sat_backend,
                          fallbacks=config.sat_backend_fallbacks)
    ctx.samples = ctx.sampler.draw(config.num_samples,
                                   deadline=ctx.deadline, packed=True)
    ctx.stats["samples"] = len(ctx.samples)
    if not ctx.samples:
        # ϕ itself is unsatisfiable: no X has a Y extension.
        return Finish(Status.FALSE, reason="matrix is unsatisfiable")


_phase("preprocess")(run_preprocess)
_phase("learn")(run_learning)
_phase("order")(run_find_order)


@_phase("verify_repair")
def verify_repair(ctx):
    """The verify–repair loop (Algorithm 1, lines 9–18).

    The counterexample matrix batches every σ[X] seen so far; repair's
    candidate-vector evaluations sweep the whole batch bit-parallel.
    Its width is bounded by max_repair_iterations (default 400 rows ≈ 7
    machine words per column), so the widening sweeps stay cheap.  The
    loop's simulation and repair evaluations run on one
    :class:`~repro.formula.bitvec.EvalProgram`, created here and dropped
    from the context when the loop ends, however it ends.

    The loop ends ``UNKNOWN`` in three ways: the iteration cap, repair
    stagnation (``STAGNATION_LIMIT`` rounds in a row that modify
    nothing), or a cycle — the verifier returns a counterexample
    (σ[X], δ[Y′]) whose earlier repair modified some candidate, so the
    repairs are oscillating rather than converging.
    """
    ctx.cex_matrix = SampleMatrix(ctx.instance.universals)
    ctx.program = EvalProgram()
    ctx.stagnation = 0
    ctx.repair_counts = {}
    ctx.non_repairable = dict(ctx.fixed)
    ctx.stats["self_substitutions"] = 0
    try:
        return _verify_repair_rounds(ctx)
    finally:
        ctx.program = None


def _verify_repair_rounds(ctx):
    instance, config = ctx.instance, ctx.config
    # (σ[X], δ[Y′]) of every counterexample whose repair modified a
    # candidate; seeing one again means the repairs oscillate.
    repaired = set()
    for iteration in range(config.max_repair_iterations + 1):
        ctx.iteration = iteration
        # Kept current every pass: every exit below reports it as is (a
        # deadline that strikes mid-loop included), save stagnation's,
        # which also counts the round it just finished.
        ctx.stats["repair_iterations"] = iteration
        ctx.deadline.check()
        ctx.check_cancelled()
        outcome = run_verify(ctx)
        if outcome.verdict == "VALID":
            final = substitute_candidates(instance, ctx.candidates,
                                          ctx.order)
            return Finish(Status.SYNTHESIZED, functions=final)
        if outcome.verdict == "FALSE":
            return Finish(Status.FALSE,
                          reason="X assignment admits no Y extension",
                          witness=outcome.sigma_x)
        key = (tuple(outcome.sigma_x[x] for x in instance.universals),
               tuple(outcome.sigma_yp[y] for y in instance.existentials))
        if key in repaired:
            return Finish(Status.UNKNOWN, reason=REPAIR_CYCLED)
        if ctx.listeners:
            ctx.emit(CounterexampleFound(iteration,
                                         dict(outcome.sigma_x)))
        if iteration == config.max_repair_iterations:
            break
        modified = run_repair(ctx, outcome.sigma_x)
        if modified:
            repaired.add(key)
        # Manthan2-style fallback: a candidate repaired too often is
        # replaced by its self-substitution and retired from repair.
        if config.use_self_substitution:
            run_self_substitution(ctx)
        if modified == 0:
            ctx.stagnation += 1
        else:
            ctx.stagnation = 0
        if ctx.listeners:
            ctx.emit(RepairRound(iteration, modified, ctx.stagnation))
        if modified == 0 and ctx.stagnation >= STAGNATION_LIMIT:
            ctx.stats["repair_iterations"] = iteration + 1
            return Finish(Status.UNKNOWN, reason=REPAIR_STAGNATED)
    return Finish(Status.UNKNOWN, reason=REPAIR_CAP)


#: The paper's Algorithm 1, staged.
DEFAULT_PHASE_NAMES = ("unit_fastpath", "sample", "preprocess", "learn",
                       "order", "verify_repair")

#: phase -> the phase that must run earlier in the same list: learning
#: reads the samples, ordering the learnt candidates, and verify–repair
#: the order.  A list's first phase is exempt: it reads the context
#: handed to :meth:`Pipeline.execute`, which the caller may have filled.
_PREREQUISITES = {"learn": "sample", "order": "learn",
                 "verify_repair": "order"}


class Pipeline:
    """Execute a phase list over a shared synthesis context."""

    def __init__(self, phases=None):
        names = DEFAULT_PHASE_NAMES if phases is None else phases
        self.phases = []
        for entry in names:
            if isinstance(entry, Phase):
                self.phases.append(entry)
            elif entry in PHASES:
                self.phases.append(PHASES[entry])
            else:
                raise ReproError(
                    "unknown pipeline phase %r (choose from %s)"
                    % (entry, ", ".join(sorted(PHASES))))
        earlier = set()
        for position, phase in enumerate(self.phases):
            needed = _PREREQUISITES.get(phase.name)
            if position and needed is not None and needed not in earlier:
                raise ReproError(
                    "pipeline phase %r needs phase %r earlier in the list"
                    % (phase.name, needed))
            earlier.add(phase.name)

    def execute(self, ctx):
        """Run the phases; always returns a :class:`SynthesisResult`.

        ``ResourceBudgetExceeded`` is handled *here*, at the pipeline
        layer: the expired deadline finishes the run as ``TIMEOUT``, with
        the context's accumulated stats and anytime partials intact.
        ``OperationCancelled`` (the caller's cancellation token, polled
        before every phase and at each verify–repair iteration) likewise
        ends the run as ``CANCELLED`` with partials intact.

        Subscribed listeners receive :class:`PhaseStarted` /
        :class:`PhaseFinished` around every phase,
        :class:`CounterexampleFound` / :class:`RepairRound` from the
        loop, and :class:`PartialAvailable` / :class:`SolveFinished` at
        the end; with no listeners no event object is even constructed.
        """
        ctx.stopwatch.start()
        timings = ctx.stats.setdefault("phases", {})
        finish = None
        for phase in self.phases:
            if ctx.cancel is not None and ctx.cancel.cancelled:
                finish = Finish(Status.CANCELLED,
                                reason="cancelled by caller")
                break
            if ctx.listeners:
                ctx.emit(PhaseStarted(phase.name))
            watch = Stopwatch().start()
            try:
                outcome = phase.run(ctx)
            except OperationCancelled:
                outcome = Finish(Status.CANCELLED,
                                 reason="cancelled by caller")
            except ResourceBudgetExceeded:
                outcome = Finish(Status.TIMEOUT, reason="budget exhausted")
            finally:
                elapsed = timings.get(phase.name, 0.0) + watch.stop()
                timings[phase.name] = round(elapsed, 6)
            if ctx.listeners:
                ctx.emit(PhaseFinished(phase.name, elapsed))
            if isinstance(outcome, Finish):
                finish = outcome
                break
        if finish is None:
            finish = Finish(Status.UNKNOWN,
                            reason="pipeline ended without a verdict")
        return self._result(ctx, finish)

    @staticmethod
    def _result(ctx, finish):
        stats = ctx.stats
        stats["wall_time"] = ctx.stopwatch.stop()
        if ctx.sessions:
            oracle = {name: session.stats()
                      for name, session in ctx.sessions}
            failovers = sum(session.failovers
                            for _, session in ctx.sessions)
            if ctx.sampler is not None:
                oracle["sampler"] = ctx.sampler.stats()
                failovers += ctx.sampler.failovers
            oracle["backend"] = ctx.config.sat_backend
            oracle["failovers"] = failovers
            stats["oracle"] = oracle
        result = SynthesisResult(finish.status, functions=finish.functions,
                                 stats=stats, reason=finish.reason,
                                 witness=finish.witness)
        if finish.status in (Status.TIMEOUT, Status.UNKNOWN,
                             Status.CANCELLED):
            partials, verified = ctx.partial_snapshot()
            result.partial_functions = partials
            result.partial_verified = verified
            if partials is not None:
                stats["partial"] = {"functions": len(partials),
                                    "verified": verified}
        if ctx.listeners:
            if result.partial_functions is not None:
                ctx.emit(PartialAvailable(len(result.partial_functions),
                                          result.partial_verified))
            ctx.emit(SolveFinished(result.status, result.reason,
                                   stats["wall_time"]))
        return result
