"""Pluggable SAT oracle backends behind one incremental protocol.

Every oracle consumer in the repo — the persistent sessions in
:mod:`repro.core.sessions`, the Tseitin :class:`~repro.formula.tseitin.
SolverSink` and the sampler — talks to the solver
through the same narrow surface.  :class:`SatBackend` names that
surface explicitly so the pure-Python CDCL can be swapped for a native
solver without touching the synthesis loop:

``ensure_vars`` / ``reserve_var``
    Grow the variable space; auxiliary (Tseitin, selector) variables are
    allocated from the same space, after the problem variables.
``add_clause(lits, group=None)`` / ``add_cnf(cnf, group=None)``
    Load clauses, optionally guarded by a clause group.
``new_group`` / ``release_group``
    MiniSat-style retractable clause groups: a group's clauses
    constrain every ``solve`` until the group is released, and a
    release is permanent and idempotent.  Problem variables must be
    reserved *before* opening groups; a clause that references a group
    selector is rejected.
``solve(assumptions=, conflict_budget=, deadline=)``
    Returns ``SAT``/``UNSAT``/``UNKNOWN``.  Selectors of live groups
    are assumed automatically, before the caller's assumptions, and
    never escape: ``model`` (a ``{var: bool}`` dict over the full
    variable space) and ``core`` (a subset of the caller's assumptions
    sufficient for UNSAT; ``[]`` when the formula is unconditionally
    UNSAT) are both selector-free.
``stats()``
    The oracle counters the engine reports under ``stats["oracle"]``:
    ``conflicts``/``decisions``/``propagations``/``restarts``.  Going
    through the protocol (not private solver attributes) is what keeps
    an alternative backend from silently reporting zeros.

Three backends are registered:

* ``python`` — :class:`PythonBackend`, the repo's own CDCL
  (:class:`~repro.sat.solver.Solver`).  The reference implementation
  and the default; every environment has it.
* ``python-emulated`` — the same CDCL, but with clause groups provided
  by the *generic selector-literal emulation layer*
  (:class:`GroupEmulationBackend`) instead of the solver's native group
  machinery.  This is the exact group strategy a group-less native
  solver needs, kept runnable everywhere so the tier-1 differential and
  trajectory suites pin its semantics against the reference even when
  no native solver is installed.
* ``pysat`` — :class:`PySATBackend`, the optional `python-sat`_ bridge
  (guarded import): native assumptions and cores, clause groups through
  the same emulation layer.  ``pysat:<solver>`` selects a specific
  PySAT engine (e.g. ``pysat:minisat22``); plain ``pysat`` means
  ``pysat:glucose3``.

A fourth registered name, ``faulty:<inner>``, wraps any of the above in
the deterministic fault injector of :mod:`repro.sat.faults` (driven by
a seeded :class:`~repro.sat.faults.FaultPlan`, spec'd via the
``REPRO_FAULT_PLAN`` environment variable).  With no plan configured it
is a pure passthrough, which the differential suite pins bit-identical
to the wrapped backend.

.. _python-sat: https://pysathq.github.io/

Backends differ in *which* model or core they return and in how much
work a budgeted call performs, but never in verdicts: the differential
harness (``tests/sat/test_backend_differential.py``) replays identical
incremental scripts against every installed backend and checks each
answer against the formula itself, and the trajectory suite
(``tests/core/test_backend_trajectory.py``) pins engine- and
campaign-level equivalence.
"""

from repro.sat.solver import SAT, UNSAT, UNKNOWN, Solver
from repro.utils.errors import ReproError

__all__ = [
    "BackendUnavailableError",
    "GroupEmulationBackend",
    "PySATBackend",
    "PythonBackend",
    "SatBackend",
    "available_backends",
    "backend_available",
    "backend_capabilities",
    "backend_names",
    "make_backend",
]


class BackendUnavailableError(ReproError):
    """The requested backend's native solver library is not installed."""


class SatBackend:
    """The incremental oracle protocol (see the module docstring).

    This base class documents the surface and supplies the shared
    pieces; conformance is duck-typed — :class:`PythonBackend` inherits
    the whole protocol from :class:`~repro.sat.solver.Solver` directly.

    Class attributes
    ----------------
    name:
        Registry name of the backend.
    capabilities:
        Feature tags consumers may probe before relying on optional
        behavior.  ``"weighted_polarity"`` marks backends that accept
        the sampler's randomized-branching knobs (``polarity_mode``,
        ``random_var_freq``, ``polarity_weights``, re-seedable
        ``rng``); the sampler falls back to the reference backend
        otherwise.
    """

    name = None
    capabilities = frozenset()

    def ensure_vars(self, n):
        raise NotImplementedError

    def reserve_var(self):
        raise NotImplementedError

    def add_clause(self, lits, group=None):
        raise NotImplementedError

    def add_cnf(self, cnf, group=None):
        """Load all clauses of a CNF; returns the backend's ``ok``."""
        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            self.add_clause(clause, group=group)
        return self.ok

    def new_group(self):
        raise NotImplementedError

    def release_group(self, group):
        raise NotImplementedError

    def solve(self, assumptions=(), conflict_budget=None, deadline=None):
        raise NotImplementedError

    @property
    def model(self):
        raise NotImplementedError

    @property
    def core(self):
        raise NotImplementedError

    @property
    def ok(self):
        """``False`` once a root-level conflict is known (advisory:
        backends that cannot detect it eagerly stay ``True``)."""
        return True

    def stats(self):
        raise NotImplementedError


class PythonBackend(Solver):
    """The reference backend: the repo's own CDCL, native clause groups.

    A transparent subclass — constructing it is bit-for-bit identical
    to constructing :class:`~repro.sat.solver.Solver`, so the default
    configuration's trajectories are unchanged by the protocol
    extraction.
    """

    name = "python"
    capabilities = frozenset({"weighted_polarity"})


class GroupEmulationBackend(SatBackend):
    """Clause groups by selector-literal emulation over a raw core.

    The strategy MiniSat popularised and the native :class:`Solver`
    implements internally, lifted into a backend-agnostic layer: every
    group owns a fresh *selector* variable, clauses added to the group
    carry ``¬selector``, ``solve`` assumes the selectors of all live
    groups (sorted by group id, before the caller's assumptions), and
    releasing a group asserts the unit ``¬selector`` that permanently
    satisfies its clauses.  Models and cores are masked so selector
    variables never escape to callers.

    Subclasses provide the group-less core via ``_raw_*`` hooks:
    ``_raw_add_clause(lits)``, ``_raw_solve(assumptions,
    conflict_budget, deadline)``, ``_raw_model()`` and ``_raw_core()``,
    plus the protocol's variable management.
    """

    def __init__(self):
        self._group_selector = {}   # group id -> selector var
        self._selector_group = {}   # selector var -> group id
        self._released = set()
        self._next_group = 0
        self._model = None
        self._core = None

    # ------------------------------------------------------------------
    # raw-core hooks
    # ------------------------------------------------------------------
    def _raw_add_clause(self, lits):
        raise NotImplementedError

    def _raw_solve(self, assumptions, conflict_budget, deadline):
        raise NotImplementedError

    def _raw_model(self):
        raise NotImplementedError

    def _raw_core(self):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def add_clause(self, lits, group=None):
        lits = [int(l) for l in lits]
        if self._selector_group:
            for l in lits:
                if abs(l) in self._selector_group:
                    raise ReproError(
                        "literal %d references a group selector; reserve "
                        "problem variables before opening groups" % l)
        if group is not None:
            if group not in self._group_selector:
                raise ReproError("unknown clause group %r" % (group,))
            if group in self._released:
                raise ReproError("clause group %r is released" % (group,))
            lits = lits + [-self._group_selector[group]]
        return self._raw_add_clause(lits)

    def new_group(self):
        selector = self.reserve_var()
        group = self._next_group
        self._next_group += 1
        self._group_selector[group] = selector
        self._selector_group[selector] = group
        return group

    def release_group(self, group):
        if group not in self._group_selector:
            raise ReproError("unknown clause group %r" % (group,))
        if group in self._released:
            return
        self._released.add(group)
        self._raw_add_clause([-self._group_selector[group]])

    def solve(self, assumptions=(), conflict_budget=None, deadline=None):
        self._model = None
        self._core = None
        assumptions = [int(l) for l in assumptions]
        selectors = [self._group_selector[g]
                     for g in sorted(self._group_selector)
                     if g not in self._released]
        status = self._raw_solve(selectors + assumptions, conflict_budget,
                                 deadline)
        if status == SAT:
            model = self._raw_model()
            for l in assumptions:
                model.setdefault(abs(l), l > 0)
            self._model = {v: b for v, b in model.items()
                           if v not in self._selector_group}
        elif status == UNSAT:
            core = self._raw_core() or []
            self._core = [l for l in core
                          if abs(l) not in self._selector_group]
        return status

    @property
    def model(self):
        return self._model

    @property
    def core(self):
        return self._core


class EmulatedPythonBackend(GroupEmulationBackend):
    """The reference CDCL behind the generic group-emulation layer.

    Functionally interchangeable with :class:`PythonBackend` — the
    selector strategy is the one the native groups use internally, so
    the two produce the same verdicts, models, and cores call for call
    (the differential suite asserts this).  Exists so the emulation
    layer every native backend depends on is exercised by tier-1 in
    environments without any native solver installed.
    """

    name = "python-emulated"
    capabilities = frozenset({"weighted_polarity"})

    def __init__(self, cnf=None, rng=None, polarity_mode="saved",
                 random_var_freq=0.0, default_phase=False,
                 polarity_weights=None):
        super().__init__()
        self._inner = Solver(rng=rng, polarity_mode=polarity_mode,
                             random_var_freq=random_var_freq,
                             default_phase=default_phase,
                             polarity_weights=polarity_weights)
        if cnf is not None:
            self.add_cnf(cnf)

    def ensure_vars(self, n):
        self._inner.ensure_vars(n)

    def reserve_var(self):
        return self._inner.reserve_var()

    def _raw_add_clause(self, lits):
        return self._inner.add_clause(lits)

    def _raw_solve(self, assumptions, conflict_budget, deadline):
        return self._inner.solve(assumptions=assumptions,
                                 conflict_budget=conflict_budget,
                                 deadline=deadline)

    def _raw_model(self):
        return dict(self._inner.model)

    def _raw_core(self):
        return self._inner.core

    @property
    def ok(self):
        return self._inner.ok

    @property
    def num_vars(self):
        return self._inner.num_vars

    # The sampler's persistent mode re-seeds the solver RNG and
    # refreshes the polarity weights in place between draws.
    @property
    def rng(self):
        return self._inner.rng

    @rng.setter
    def rng(self, value):
        self._inner.rng = value

    @property
    def polarity_weights(self):
        return self._inner.polarity_weights

    def stats(self):
        return self._inner.stats()


class PySATBackend(GroupEmulationBackend):
    """Optional `python-sat` bridge: native assumptions and cores,
    groups through the emulation layer.

    ``rng`` is accepted for factory uniformity but unused — PySAT
    engines are deterministic and expose no polarity randomization,
    which is why this backend does not advertise
    ``"weighted_polarity"`` (the sampler keeps the reference solver).

    Budgets map to PySAT's budgeted interface: ``conflict_budget``
    becomes ``conf_budget`` + ``solve_limited``; a ``deadline`` arms a
    watchdog timer that calls ``interrupt()`` when the wall clock runs
    out.  Either exhaustion surfaces as ``UNKNOWN`` and the solver
    remains usable, matching the reference semantics.
    """

    name = "pysat"
    capabilities = frozenset()

    #: PySAT engine used when the backend is selected as plain "pysat".
    DEFAULT_SOLVER = "glucose3"

    def __init__(self, cnf=None, rng=None, solver_name=None):
        super().__init__()
        try:
            from pysat.solvers import Solver as _PySolver
        except ImportError:
            raise BackendUnavailableError(
                "the 'pysat' backend requires the python-sat package "
                "(pip install python-sat)")
        self.solver_name = solver_name or self.DEFAULT_SOLVER
        self._inner = _PySolver(name=self.solver_name)
        self._num_vars = 0
        self._ok = True
        if cnf is not None:
            self.add_cnf(cnf)

    def ensure_vars(self, n):
        if n > self._num_vars:
            self._num_vars = n

    def reserve_var(self):
        self._num_vars += 1
        return self._num_vars

    @property
    def num_vars(self):
        return self._num_vars

    @property
    def ok(self):
        return self._ok

    def _raw_add_clause(self, lits):
        for l in lits:
            self.ensure_vars(abs(l))
        if not lits:
            # Empty clause: not every PySAT engine accepts it literally;
            # a contradictory pair on a fresh variable is equivalent.
            v = self.reserve_var()
            self._inner.add_clause([v])
            self._inner.add_clause([-v])
            self._ok = False
            return False
        self._inner.add_clause(list(lits))
        return self._ok

    def _raw_solve(self, assumptions, conflict_budget, deadline):
        if deadline is not None and deadline.expired():
            return UNKNOWN
        timer = None
        if deadline is not None and deadline.remaining() is not None:
            import threading

            timer = threading.Timer(deadline.remaining(),
                                    self._inner.interrupt)
            timer.daemon = True
            timer.start()
        interruptible = timer is not None
        try:
            if conflict_budget is not None:
                self._inner.conf_budget(int(conflict_budget))
                verdict = self._inner.solve_limited(
                    assumptions=assumptions,
                    expect_interrupt=interruptible)
            elif interruptible:
                verdict = self._inner.solve_limited(
                    assumptions=assumptions, expect_interrupt=True)
            else:
                verdict = self._inner.solve(assumptions=assumptions)
        finally:
            if timer is not None:
                timer.cancel()
        if verdict is None:
            if interruptible:
                self._inner.clear_interrupt()
            return UNKNOWN
        return SAT if verdict else UNSAT

    def _raw_model(self):
        model = {abs(l): l > 0 for l in self._inner.get_model() or ()}
        for v in range(1, self._num_vars + 1):
            model.setdefault(v, False)
        return model

    def _raw_core(self):
        return self._inner.get_core()

    def stats(self):
        acc = self._inner.accum_stats() or {}
        return {
            "conflicts": int(acc.get("conflicts", 0)),
            "decisions": int(acc.get("decisions", 0)),
            "propagations": int(acc.get("propagations", 0)),
            "restarts": int(acc.get("restarts", 0)),
        }


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY = {
    PythonBackend.name: PythonBackend,
    EmulatedPythonBackend.name: EmulatedPythonBackend,
    PySATBackend.name: PySATBackend,
}

#: The fault-injection wrapper lives in :mod:`repro.sat.faults`, which
#: imports this module — so it is resolved lazily, never at import time.
_FAULTY = "faulty"


def _split(name):
    """``"pysat:minisat22"`` -> ``("pysat", "minisat22")``."""
    base, _, variant = name.partition(":")
    return base, variant or None


def backend_names():
    """Registered backend names, sorted (availability not checked)."""
    return sorted(set(_REGISTRY) | {_FAULTY})


def backend_available(name):
    """Whether ``name`` can actually be constructed here."""
    base, variant = _split(name)
    if base == _FAULTY:
        # faulty:<inner> is available exactly when its inner backend is
        # (a bare "faulty" wraps the reference backend).
        return backend_available(variant or PythonBackend.name)
    if base not in _REGISTRY:
        return False
    if base == PySATBackend.name:
        try:
            import pysat.solvers  # noqa: F401
        except ImportError:
            return False
    return True


def available_backends():
    """The subset of :func:`backend_names` constructible right now."""
    return [name for name in backend_names() if backend_available(name)]


def backend_capabilities(name):
    """Capability tags of a registered backend (by base name)."""
    base, variant = _split(name)
    if base == _FAULTY:
        # the wrapper is transparent: it has whatever its inner has.
        return backend_capabilities(variant or PythonBackend.name)
    try:
        return _REGISTRY[base].capabilities
    except KeyError:
        raise ReproError("unknown SAT backend %r (choose from %s)"
                         % (name, ", ".join(backend_names())))


def make_backend(name, cnf=None, rng=None, **kwargs):
    """Construct a backend by registry name.

    ``cnf`` is loaded at construction; ``rng`` seeds randomized
    heuristics where the backend has any; remaining keyword arguments
    are backend-specific (the reference backends accept the
    :class:`~repro.sat.solver.Solver` heuristic knobs).  Raises
    :class:`BackendUnavailableError` when the backend's library is
    missing and :class:`ReproError` for unknown names.
    """
    base, variant = _split(name)
    if base == _FAULTY:
        from repro.sat.faults import FaultInjectingBackend

        return FaultInjectingBackend(
            cnf, rng=rng, inner=variant or PythonBackend.name, **kwargs)
    try:
        cls = _REGISTRY[base]
    except KeyError:
        raise ReproError("unknown SAT backend %r (choose from %s)"
                         % (name, ", ".join(backend_names())))
    if variant is not None:
        if base != PySATBackend.name:
            raise ReproError("backend %r does not take a :variant" % base)
        kwargs["solver_name"] = variant
    return cls(cnf, rng=rng, **kwargs)
