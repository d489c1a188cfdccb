"""Wall-clock helpers: stopwatches and cooperative deadlines.

The synthesis engines are long-running CEGIS loops; they poll a
:class:`Deadline` at loop boundaries and unwind with
:class:`~repro.utils.errors.ResourceBudgetExceeded` when it expires, which
the portfolio runner converts into a ``TIMEOUT`` verdict.
"""

import time

from repro.utils.errors import ResourceBudgetExceeded


class Stopwatch:
    """Accumulating wall-clock stopwatch.

    >>> sw = Stopwatch().start()
    >>> _ = sw.stop()
    >>> sw.elapsed >= 0.0
    True
    """

    def __init__(self):
        self.elapsed = 0.0
        self._started_at = None

    def start(self):
        if self._started_at is None:
            self._started_at = time.perf_counter()
        return self

    def stop(self):
        if self._started_at is not None:
            self.elapsed += time.perf_counter() - self._started_at
            self._started_at = None
        return self.elapsed

    @property
    def running(self):
        return self._started_at is not None

    def __enter__(self):
        return self.start()

    def __exit__(self, *_exc):
        self.stop()
        return False


class Deadline:
    """A cooperative wall-clock deadline.

    ``Deadline(None)`` never expires; ``Deadline(seconds)`` expires that many
    seconds after construction.
    """

    def __init__(self, seconds=None):
        self.seconds = seconds
        self._expiry = None if seconds is None else time.perf_counter() + seconds

    def expired(self):
        return self._expiry is not None and time.perf_counter() >= self._expiry

    def remaining(self):
        """Seconds left, or ``None`` for an unbounded deadline."""
        if self._expiry is None:
            return None
        return max(0.0, self._expiry - time.perf_counter())

    def check(self):
        """Raise :class:`ResourceBudgetExceeded` if the deadline passed."""
        if self.expired():
            raise ResourceBudgetExceeded(
                "wall-clock deadline of %.3fs exceeded" % self.seconds,
                budget=self.seconds,
            )
