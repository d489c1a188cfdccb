"""The first-class synthesis context: one object for all run state.

Every pipeline phase (:mod:`repro.core.pipeline`) reads and writes the
same :class:`SynthesisContext` — rng streams, oracle sessions, sampler,
candidate vector, dependency tracker, order, repair bookkeeping and
statistics — so a deadline can interrupt any phase without losing what
earlier phases accumulated: the accumulated statistics and the
best-so-far candidate vector survive into the final
:class:`SynthesisResult` as anytime partials.

The context also owns the run's RNG discipline.  ``spawn`` consumes
parent-RNG state, so the *sequence* of ``ctx.spawn(salt)`` calls is part
of the engine's trajectory contract: the pipeline issues a fixed
sequence (sampler = 1, preprocess = 2, verify = 100+iteration, repair =
200+iteration, oracle sessions from the separate ``oracle_rng`` stream),
and reordering it changes the pinned trajectory digest
(``tests/trajectory.py``) — statuses *and* functions.  Within a round's
verify stream (salt 100+iteration) the first draws are the simulation
patterns: one ``getrandbits(SIM_WIDTH)`` per universal, in instance
order (:func:`repro.core.verifier.simulate`).
"""

from repro.core.config import Manthan3Config
from repro.utils.errors import OperationCancelled
from repro.utils.rng import make_rng, spawn
from repro.utils.timer import Deadline, Stopwatch

__all__ = ["Finish", "SynthesisContext"]


class Finish:
    """Terminal outcome returned by a pipeline phase.

    A phase returns ``None`` to hand the context to the next phase, or a
    ``Finish`` to end the run; the pipeline turns the ``Finish`` into a
    :class:`~repro.core.result.SynthesisResult` with the context's
    accumulated stats (and anytime partials for TIMEOUT/UNKNOWN).
    """

    __slots__ = ("status", "functions", "reason", "witness")

    def __init__(self, status, functions=None, reason="", witness=None):
        self.status = status
        self.functions = functions
        self.reason = reason
        self.witness = witness

    def __repr__(self):
        return "Finish(%s)" % self.status


class SynthesisContext:
    """All mutable state of one Manthan3 run.

    Attributes
    ----------
    instance / config:
        The DQBF under synthesis and the engine configuration.
    deadline:
        The whole-run wall-clock budget every phase honors.
    rng / oracle_rng:
        The run's root RNG and the oracle-session stream.  The oracle
        stream is drawn at construction, before any phase spawns, so
        the sampler/preprocess/loop streams do not depend on when the
        sessions are built.
    stats:
        The accumulated statistics dict — lives on the context (not in
        a phase) precisely so deadline expiry cannot drop it.
    matrix_session / verifier_session / sessions / sampler / samples:
        Oracle state: the persistent solvers (``None`` until the sample
        phase builds them), and the drawn sample set (a packed
        :class:`~repro.formula.bitvec.SampleMatrix`).
    fixed:
        Preprocessing's final functions (``{y: BoolExpr}``).
    candidates / tracker / order:
        The learner's candidate vector, the dependency bookkeeping
        ``D``, and the current total order.
    cex_matrix / program / repair_counts / non_repairable / stagnation /
    iteration:
        Verify–repair loop state: the batched counterexample matrix,
        the run's :class:`~repro.formula.bitvec.EvalProgram` (created
        when the loop starts and dropped when it ends, so compiled
        code never outlives the run; simulation and repair's
        evaluations all run on it), per-candidate repair counts,
        retired candidates (preprocessing fixed + self-substituted),
        the stagnation counter, and the current loop iteration (which
        seeds the per-iteration RNG spawns).
    listeners / cancel:
        The run's observation and interruption channels
        (:mod:`repro.api`): subscribed event listeners (emission is a
        no-op without any) and an optional
        :class:`~repro.api.CancellationToken` polled at phase and
        repair-iteration boundaries.
    """

    def __init__(self, instance, config=None, deadline=None,
                 listeners=None, cancel=None):
        self.instance = instance
        self.config = config or Manthan3Config()
        self.deadline = deadline or Deadline(None)
        self.stopwatch = Stopwatch()
        self.rng = make_rng(self.config.seed)
        # Drawn here, first, so the sampler/preprocess/loop streams
        # spawned later do not depend on the sessions.
        self.oracle_rng = spawn(self.rng, 5)
        self.stats = {"samples": 0, "repair_iterations": 0,
                      "candidates_learned": 0}
        self.matrix_session = None
        self.verifier_session = None
        self.sessions = []
        self.sampler = None
        self.samples = None
        self.fixed = {}
        self.candidates = None
        self.tracker = None
        self.order = None
        self.cex_matrix = None
        self.program = None
        self.repair_counts = {}
        self.non_repairable = None
        self.stagnation = 0
        self.iteration = 0
        self.listeners = tuple(listeners or ())
        self.cancel = cancel

    # ------------------------------------------------------------------
    # observation and interruption (the repro.api channels)
    # ------------------------------------------------------------------
    def emit(self, event):
        """Deliver ``event`` to every subscribed listener.

        Listener exceptions are isolated — observation must never alter
        a solve's trajectory — and counted under
        ``stats["listener_errors"]``.  Emission sites guard with
        ``if ctx.listeners:`` so an unobserved run never even
        constructs the event object.
        """
        for listener in self.listeners:
            try:
                listener(event)
            except Exception:
                self.stats["listener_errors"] = \
                    self.stats.get("listener_errors", 0) + 1

    def check_cancelled(self):
        """Raise :class:`OperationCancelled` once the token fired."""
        if self.cancel is not None and self.cancel.cancelled:
            raise OperationCancelled()

    # ------------------------------------------------------------------
    # rng discipline
    # ------------------------------------------------------------------
    def spawn(self, salt):
        """Spawn a child RNG off the run's root stream.

        Consumes root-RNG state — call sites and their order are part of
        the trajectory contract (see the module docstring).
        """
        return spawn(self.rng, salt)

    # ------------------------------------------------------------------
    # anytime partials
    # ------------------------------------------------------------------
    def final_outputs(self):
        """Outputs whose functions are final: preprocessing-fixed plus
        self-substitution retirees."""
        if self.non_repairable is not None:
            return set(self.non_repairable)
        return set(self.fixed)

    def partial_snapshot(self):
        """``(functions, verified)`` for an anytime partial result.

        ``functions`` is the best-so-far candidate vector grounded to
        universal variables — in the same form as a SYNTHESIZED result's
        ``functions``.  A snapshot taken before learning finished may be
        *partial* in the second sense too: entries whose grounding
        references a still-missing output are dropped rather than
        invented.  Returns ``(None, None)`` when no candidate exists at
        all.  ``verified`` counts the known-final entries.
        """
        candidates = self.candidates
        if candidates is None:
            candidates = dict(self.fixed)
        functions = self._ground_available(candidates)
        if not functions:
            return None, None
        verified = len(self.final_outputs() & set(functions))
        return functions, verified

    def _ground_available(self, candidates):
        """Ground every entry whose Y-references resolve within the
        dict (bottom-up fixpoint); drop the rest.

        Unlike :func:`~repro.core.order.substitute_candidates` this
        tolerates incomplete vectors — a timeout can strike mid-run —
        and silently drops entries that would not certify structurally
        (out-of-dependency support), since a best-effort snapshot must
        never raise.
        """
        y_set = set(self.instance.existentials)
        final = {}
        pending = dict(candidates)
        progressed = True
        while pending and progressed:
            progressed = False
            for y in sorted(pending):
                expr = pending[y]
                refs = expr.support() & y_set
                if not refs <= set(final):
                    continue
                del pending[y]
                progressed = True
                if refs:
                    expr = expr.substitute({r: final[r] for r in refs})
                if expr.support() <= self.instance.dependencies[y]:
                    final[y] = expr
        return final
