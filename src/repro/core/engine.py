"""The Manthan3 engine: Algorithm 1 end to end.

This module is thin: ``Manthan3`` owns a
:class:`~repro.core.pipeline.Pipeline` (the paper's phase sequence by
default, any phase list for ablation variants) and each ``run()``
executes it over a fresh :class:`~repro.core.context.SynthesisContext`.
Deadline handling, per-phase timing, and anytime partial results all
live at the pipeline layer.
"""

from repro.core.config import Manthan3Config
from repro.core.context import SynthesisContext
from repro.core.pipeline import _PREREQUISITES, Pipeline
from repro.utils.errors import ReproError
from repro.utils.timer import Deadline


class Manthan3:
    """Data-driven Henkin function synthesis (paper Algorithm 1).

    ``phases`` (a sequence of phase names or
    :class:`~repro.core.pipeline.Phase` objects, default the full
    Algorithm 1 list) selects which pipeline stages run — structural
    ablations like ``manthan3-nopre`` are just a shorter list.

    >>> from repro.parsing import parse_dqdimacs
    >>> inst = parse_dqdimacs('''p cnf 3 2
    ... a 1 0
    ... d 2 1 0
    ... d 3 1 0
    ... 1 2 0
    ... -2 3 0
    ... ''')
    >>> result = Manthan3().run(inst)
    >>> result.status
    'SYNTHESIZED'
    """

    name = "manthan3"
    #: The staged pipeline emits the :mod:`repro.api` event stream;
    #: portfolio workers check this before wiring an IPC relay.
    supports_events = True

    def __init__(self, config=None, phases=None):
        self.config = config or Manthan3Config()
        self.pipeline = Pipeline(phases)
        # ``Pipeline`` lets a list's first phase read a context its
        # caller prepared; ``run`` always builds a fresh one.
        first = self.pipeline.phases[0].name if self.pipeline.phases \
            else None
        if first in _PREREQUISITES:
            raise ReproError(
                "pipeline phase %r needs phase %r earlier in the list"
                % (first, _PREREQUISITES[first]))

    def run(self, instance, timeout=None, listeners=None, cancel=None):
        """Synthesize Henkin functions for ``instance``.

        ``timeout`` (seconds) bounds the whole run; its expiry
        yields ``Status.TIMEOUT`` carrying the accumulated stats and
        the best-so-far candidates as anytime partials.

        ``listeners`` (callables, each invoked with every
        :mod:`repro.core.events` event) observe the run;  ``cancel`` (a
        :class:`~repro.api.CancellationToken`) interrupts it at the
        next phase or repair-iteration boundary with a partial-bearing
        ``CANCELLED`` result.  Neither affects the solve trajectory.
        """
        ctx = SynthesisContext(instance, self.config,
                               deadline=Deadline(timeout),
                               listeners=listeners, cancel=cancel)
        return self.pipeline.execute(ctx)


def synthesize(instance, config=None, timeout=None):
    """Module-level convenience: run Manthan3 with an optional timeout."""
    return Manthan3(config=config).run(instance, timeout=timeout)
