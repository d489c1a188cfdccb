"""Typed solve events: the structured progress stream of the façade.

The staged pipeline emits *typed events* at its phase and loop
boundaries, and any listener subscribed through
:meth:`repro.api.Solver.subscribe` receives them — in-process for
``solve()``, relayed over the worker IPC pipe for ``solve_batch()`` (the
relay stamps ``engine``/``instance`` on each event so a batch listener
can tell the streams apart).

Events are plain picklable value objects; with no listener subscribed
none is even constructed (guarded at the emission sites; pinned by
``tests/api/test_events.py``, which counts constructions during a solve).

The event vocabulary:

===================== =================================================
:class:`PhaseStarted`        a pipeline phase began
:class:`PhaseFinished`       it ended (with its wall time)
:class:`CounterexampleFound` verification found σ[X] refuting the
                             current candidate vector
:class:`RepairRound`         one repair iteration finished
:class:`PartialAvailable`    an anytime partial vector is attached to a
                             non-SYNTHESIZED result
:class:`SolveFinished`       the run is over (always the last event)
===================== =================================================
"""

__all__ = [
    "CounterexampleFound",
    "Event",
    "PartialAvailable",
    "PhaseFinished",
    "PhaseStarted",
    "RepairRound",
    "SolveFinished",
]


class Event:
    """Base class of every solve event.

    ``engine`` and ``instance`` are ``None`` for in-process ``solve()``
    streams (the subscriber already knows whose events these are); the
    batch relay stamps them with the worker's job identity.
    """

    __slots__ = ("engine", "instance")
    kind = "event"

    def __init__(self):
        self.engine = None
        self.instance = None

    def _fields(self):
        return {
            slot: getattr(self, slot)
            for cls in type(self).__mro__
            for slot in getattr(cls, "__slots__", ())
        }

    def as_dict(self):
        """JSON-friendly view: ``kind`` plus every field."""
        data = {"kind": self.kind}
        data.update(self._fields())
        return data

    def __repr__(self):
        fields = ", ".join(
            "%s=%r" % (k, v) for k, v in sorted(self._fields().items())
            if v is not None)
        return "%s(%s)" % (type(self).__name__, fields)


class PhaseStarted(Event):
    """A pipeline phase is about to run."""

    __slots__ = ("phase",)
    kind = "phase_started"

    def __init__(self, phase):
        super().__init__()
        self.phase = phase


class PhaseFinished(Event):
    """A pipeline phase ended after ``elapsed`` seconds."""

    __slots__ = ("phase", "elapsed")
    kind = "phase_finished"

    def __init__(self, phase, elapsed):
        super().__init__()
        self.phase = phase
        self.elapsed = elapsed


class CounterexampleFound(Event):
    """Verification refuted the candidate vector.

    ``sigma_x`` is the universal assignment ``{x: bool}`` of the
    counterexample — the σ[X] the next repair round consumes.
    """

    __slots__ = ("iteration", "sigma_x")
    kind = "counterexample_found"

    def __init__(self, iteration, sigma_x):
        super().__init__()
        self.iteration = iteration
        self.sigma_x = sigma_x


class RepairRound(Event):
    """One verify–repair iteration completed.

    ``modified`` counts the candidates the round changed; ``stagnation``
    is the current run of zero-modification rounds (the engine gives up
    at :data:`~repro.core.pipeline.STAGNATION_LIMIT`).
    """

    __slots__ = ("iteration", "modified", "stagnation")
    kind = "repair_round"

    def __init__(self, iteration, modified, stagnation):
        super().__init__()
        self.iteration = iteration
        self.modified = modified
        self.stagnation = stagnation


class PartialAvailable(Event):
    """A non-SYNTHESIZED run still produced an anytime partial vector.

    Emitted just before :class:`SolveFinished` when the result carries
    ``partial_functions``: ``functions`` counts the grounded entries,
    ``verified`` the known-final ones.
    """

    __slots__ = ("functions", "verified")
    kind = "partial_available"

    def __init__(self, functions, verified):
        super().__init__()
        self.functions = functions
        self.verified = verified


class SolveFinished(Event):
    """The run is over; always the stream's final event."""

    __slots__ = ("status", "reason", "wall_time")
    kind = "solve_finished"

    def __init__(self, status, reason, wall_time):
        super().__init__()
        self.status = status
        self.reason = reason
        self.wall_time = wall_time
