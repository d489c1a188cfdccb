"""Randomized CDCL sampling with adaptive polarity weighting."""

import warnings

from repro.formula.bitvec import SampleMatrix
from repro.sat.backend import BackendUnavailableError, \
    backend_capabilities, make_backend
from repro.sat.solver import SAT, UNSAT
from repro.utils.errors import ResourceBudgetExceeded
from repro.utils.rng import make_rng, spawn

#: Backend failures the sampler recovers from via its fallback chain.
_ORACLE_FAILURES = (BackendUnavailableError, MemoryError)

#: Backend names already warned about (capability fallback is loud, but
#: only once per requested backend, not once per Sampler).
_FALLBACK_WARNED = set()


class Sampler:
    """Draw satisfying assignments of a CNF.

    One solver is kept across draws: learnt clauses and branching
    activity persist, and each draw only re-seeds the solver's RNG and
    refreshes the polarity weights — diversity comes from the
    randomized polarity/branching, not from rebuilding.

    Parameters
    ----------
    cnf:
        The specification ϕ.
    rng:
        Seed or RNG for reproducible sampling.
    weighted_vars:
        Variables whose polarity weight is adapted (Manthan biases the
        existential Y variables); others branch uniformly at random.
    pilot:
        Number of pilot samples used to estimate marginals before
        adaptive weights kick in.
    bias_floor / bias_ceiling:
        Clamp for adapted weights; Manthan uses 0.1/0.9 so no variable is
        ever sampled one-sidedly.
    backend:
        :mod:`repro.sat.backend` name of the sampling oracle.  Sampling
        needs the weighted-polarity heuristics, so a backend that does
        not advertise the ``"weighted_polarity"`` capability (e.g.
        ``pysat``) keeps the reference ``python`` solver — loudly: a
        one-time :class:`RuntimeWarning` is emitted and the requested
        name is reported under ``stats()["backend_fallback"]``.
    fallbacks:
        Backend names tried, in order, when the live sampling backend
        fails mid-draw (:class:`~repro.sat.backend.
        BackendUnavailableError` or ``MemoryError``): the sampler
        rebuilds on the next capable chain entry — carrying over the
        dead solver's RNG object and the adapted polarity weights —
        and retries the draw.  Entries lacking ``"weighted_polarity"``
        are skipped (sampling cannot run on them).  Empty means fail
        fast.
    """

    def __init__(self, cnf, rng=None, weighted_vars=(), pilot=10,
                 bias_floor=0.1, bias_ceiling=0.9,
                 backend="python", fallbacks=()):
        self.cnf = cnf
        self.rng = make_rng(rng)
        self.weighted_vars = list(weighted_vars)
        self.pilot = pilot
        self.bias_floor = bias_floor
        self.bias_ceiling = bias_ceiling
        if "weighted_polarity" in backend_capabilities(backend):
            self.backend = backend
            self.backend_fallback = None
        else:
            self.backend = "python"
            self.backend_fallback = backend
            if backend not in _FALLBACK_WARNED:
                _FALLBACK_WARNED.add(backend)
                warnings.warn(
                    "SAT backend %r lacks the 'weighted_polarity' "
                    "capability; sampling falls back to the reference "
                    "'python' solver" % backend,
                    RuntimeWarning, stacklevel=2)
        self._fallbacks = list(fallbacks)
        self.failovers = 0
        self._weights = {}
        self._true_counts = {v: 0 for v in self.weighted_vars}
        self._drawn = 0
        self._solver = None
        self._retired_conflicts = 0
        self.calls = 0

    def _build_solver(self, rng):
        return make_backend(
            self.backend,
            self.cnf,
            rng=rng,
            polarity_mode="weighted",
            random_var_freq=0.2,
            polarity_weights=dict(self._weights),
        )

    def _solver_for(self, salt):
        """The draw's solver: the persistent one, rerandomized."""
        if self._solver is None:
            self._solver = self._build_solver(spawn(self.rng, salt))
        else:
            self._solver.rng = spawn(self.rng, salt)
            self._solver.polarity_weights.clear()
            self._solver.polarity_weights.update(self._weights)
        return self._solver

    def _failover(self, exc):
        """Swap the dead sampling solver for the next chain backend.

        The replacement inherits the dead solver's RNG object and the
        current adapted weights; its conflicts are banked so
        :meth:`stats` stays monotone.  Chain entries without the
        ``"weighted_polarity"`` capability are skipped.  Re-raises
        ``exc`` once the chain is exhausted.
        """
        dead, self._solver = self._solver, None
        rng = getattr(dead, "rng", None)
        try:
            self._retired_conflicts += dead.stats()["conflicts"]
        except Exception:
            pass
        while self._fallbacks:
            name = self._fallbacks.pop(0)
            if "weighted_polarity" not in backend_capabilities(name):
                continue
            self.backend = name
            try:
                self._solver = self._build_solver(
                    rng if rng is not None else spawn(self.rng, 0))
            except BackendUnavailableError:
                continue
            self.failovers += 1
            return
        raise exc

    def _update_weights(self, model):
        self._drawn += 1
        for v in self.weighted_vars:
            if model[v]:
                self._true_counts[v] += 1
        if self._drawn >= self.pilot:
            for v in self.weighted_vars:
                p = self._true_counts[v] / self._drawn
                self._weights[v] = min(self.bias_ceiling,
                                       max(self.bias_floor, p))

    def draw(self, count, deadline=None, packed=False):
        """Return up to ``count`` models (fewer only if ϕ is UNSAT).

        Each model is a ``{var: bool}`` dict over the CNF's variables;
        with ``packed=True`` the models are packed directly into a
        column-major :class:`~repro.formula.bitvec.SampleMatrix` (no
        per-sample dicts are retained) — the solver stream, weight
        adaptation, and drawn models are identical either way.  Raises
        :class:`ResourceBudgetExceeded` if a SAT call returns no answer
        (as when the deadline expires).  Backend failure mid-draw
        triggers a failover through the fallback chain and a retry of
        the interrupted draw.
        """
        samples = SampleMatrix() if packed else []
        for i in range(count):
            if deadline is not None:
                deadline.check()
            solver = self._solver_for(i)
            while True:
                self.calls += 1
                try:
                    status = solver.solve(deadline=deadline)
                except _ORACLE_FAILURES as exc:
                    self._failover(exc)
                    # Retry on the replacement at the *same* RNG stream
                    # position — the draw consumes no extra parent
                    # entropy, so a recovered run replays the
                    # fault-free sample stream exactly.
                    solver = self._solver
                    continue
                break
            if status == UNSAT:
                break
            if status != SAT:
                raise ResourceBudgetExceeded("sampling budget exceeded")
            samples.append(solver.model)
            self._update_weights(solver.model)
        return samples

    def stats(self):
        """Oracle counters: calls and conflicts.

        ``conflicts`` reads the live solver plus whatever solvers lost
        to a failover had already spent.
        """
        conflicts = self._retired_conflicts
        if self._solver is not None:
            conflicts += self._solver.stats()["conflicts"]
        return {"calls": self.calls, "conflicts": conflicts,
                "backend": self.backend,
                "backend_fallback": self.backend_fallback,
                "failovers": self.failovers}

