"""Deterministic fault injection for SAT oracle backends.

The ROADMAP's north star is a service where worker crashes, hung
oracles, and mid-run backend failures are *recoverable events*.  Nothing
recovers reliably unless the failure paths are exercised on purpose, so
this module provides the chaos side of that contract:

* :class:`FaultPlan` — a declarative, **seeded** schedule of faults.  A
  plan answers one pure question: "does the N-th call of method M
  fault, and how?"  Because the answer is a hash of ``(seed, method,
  N)`` — not of any mutable RNG state — the same plan replays the same
  fault sequence whatever the interleaving of consumers, which is what
  makes chaos runs reproducible (the determinism criterion asserted by
  ``tests/chaos/``).
* :class:`FaultInjectingBackend` — a :class:`~repro.sat.backend.
  SatBackend` wrapper that consults a plan before delegating
  ``solve`` / ``add_clause`` / ``new_group`` / ``release_group`` to an
  inner backend.  It is registered as ``faulty:<inner>`` (e.g.
  ``faulty:python``, ``faulty:pysat:minisat22``) so it composes with
  ``--sat-backend`` everywhere a backend name is accepted.  With no
  plan configured the wrapper is a pure passthrough — the differential
  suite pins it bit-identical to its inner backend.

Fault kinds
-----------
``unavailable``
    Raise :class:`~repro.sat.backend.BackendUnavailableError`, the
    error a vanished native solver raises; consumers with a fallback
    chain rebuild the session on the next backend.
``memory``
    Raise :class:`MemoryError` (a worker-local OOM the failover layer
    treats exactly like an unavailable backend).
``unknown``
    Make ``solve`` return ``UNKNOWN`` without consulting the inner
    solver — an exhausted-budget verdict.  Only valid for ``solve``.
``stall``
    Sleep — up to the plan's ``stall`` seconds, but never more than a
    hair past the call's deadline — before proceeding.  A stalled
    ``solve`` whose deadline expired returns ``UNKNOWN``, matching the
    reference solver's deadline semantics.  Stall outcomes depend on
    wall clock by design; chaos tests that assert record equality use
    the other kinds.

Plan grammar
------------
A plan is parsed from a spec string — entries separated by ``,`` or
``;``::

    solve@3=unavailable         explicit: 3rd solve call (1-indexed)
    add_clause@10=memory        explicit: 10th add_clause call
    seed=42                     seeded-random mode: the seed
    rate=0.05                   per-call fault probability
    methods=solve|add_clause    methods the seeded mode targets
    kinds=unavailable|memory    kinds the seeded mode draws from
    max_faults=3                stop injecting after this many faults
    stall=0.05                  stall duration (seconds)

``FaultInjectingBackend`` reads ``REPRO_FAULT_PLAN`` from the
environment when no plan is passed explicitly, which is how a plan
reaches backends constructed deep inside the engine (the matrix
session, the E-check and the sampler build their own oracles by name)
and survives the fork into campaign pool workers.
"""

import os
import time
import zlib

from repro.sat.backend import (
    BackendUnavailableError,
    SatBackend,
    backend_capabilities,
    make_backend,
)
from repro.sat.solver import UNKNOWN
from repro.utils.errors import ReproError

__all__ = ["FAULT_KINDS", "FAULT_METHODS", "FaultInjectingBackend",
           "FaultPlan"]

#: Methods a plan may target.
FAULT_METHODS = ("solve", "add_clause", "new_group", "release_group")

#: Recognised fault kinds (see the module docstring).
FAULT_KINDS = ("unavailable", "memory", "unknown", "stall")

#: Environment variable holding the default plan spec.
PLAN_ENV = "REPRO_FAULT_PLAN"

_HASH_SPAN = float(1 << 32)


class FaultPlan:
    """A deterministic fault schedule (see the module docstring).

    Plans are immutable and *pure*: :meth:`fault_for` depends only on
    ``(method, call_index)``, never on mutable state, so any number of
    backend instances built from the same spec inject identical fault
    sequences.  The per-instance bookkeeping (call counters, the
    ``max_faults`` cap) lives in :class:`FaultInjectingBackend`.
    """

    __slots__ = ("explicit", "seed", "rate", "methods", "kinds",
                 "max_faults", "stall")

    def __init__(self, explicit=None, seed=None, rate=0.0,
                 methods=("solve",), kinds=("unavailable",),
                 max_faults=None, stall=0.05):
        self.explicit = dict(explicit or {})
        self.seed = seed
        self.rate = float(rate)
        self.methods = tuple(methods)
        self.kinds = tuple(kinds)
        self.max_faults = max_faults
        self.stall = float(stall)
        for (method, index), kind in self.explicit.items():
            self._validate(method, kind)
            if index < 1:
                raise ReproError("fault call indices are 1-based, got "
                                 "%s@%d" % (method, index))
        for method in self.methods:
            if method not in FAULT_METHODS:
                raise ReproError("unknown fault method %r (choose from "
                                 "%s)" % (method, ", ".join(FAULT_METHODS)))
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ReproError("unknown fault kind %r (choose from %s)"
                                 % (kind, ", ".join(FAULT_KINDS)))

    @staticmethod
    def _validate(method, kind):
        if method not in FAULT_METHODS:
            raise ReproError("unknown fault method %r (choose from %s)"
                             % (method, ", ".join(FAULT_METHODS)))
        if kind not in FAULT_KINDS:
            raise ReproError("unknown fault kind %r (choose from %s)"
                             % (kind, ", ".join(FAULT_KINDS)))
        if kind == "unknown" and method != "solve":
            raise ReproError("fault kind 'unknown' only applies to "
                             "solve, not %r" % method)

    @classmethod
    def parse(cls, text):
        """Build a plan from the spec grammar (module docstring)."""
        explicit = {}
        kwargs = {}
        for raw in text.replace(";", ",").split(","):
            entry = raw.strip()
            if not entry:
                continue
            if "=" not in entry:
                raise ReproError("malformed fault-plan entry %r" % entry)
            key, _, value = entry.partition("=")
            key, value = key.strip(), value.strip()
            if "@" in key:
                method, _, index = key.partition("@")
                try:
                    index = int(index)
                except ValueError:
                    raise ReproError("malformed fault-plan entry %r "
                                     "(call index must be an integer)"
                                     % entry)
                explicit[(method, index)] = value
            elif key == "seed":
                kwargs["seed"] = int(value)
            elif key == "rate":
                kwargs["rate"] = float(value)
            elif key == "methods":
                kwargs["methods"] = tuple(
                    m.strip() for m in value.split("|") if m.strip())
            elif key == "kinds":
                kwargs["kinds"] = tuple(
                    k.strip() for k in value.split("|") if k.strip())
            elif key == "max_faults":
                kwargs["max_faults"] = int(value)
            elif key == "stall":
                kwargs["stall"] = float(value)
            else:
                raise ReproError("unknown fault-plan key %r" % key)
        return cls(explicit=explicit, **kwargs)

    def _kinds_for(self, method):
        if method == "solve":
            return self.kinds
        return tuple(k for k in self.kinds if k != "unknown")

    def fault_for(self, method, call_index):
        """The fault kind for the ``call_index``-th call of ``method``
        (1-indexed), or ``None``.  Pure: same arguments, same answer."""
        kind = self.explicit.get((method, call_index))
        if kind is not None:
            return kind
        if self.seed is None or self.rate <= 0.0 \
                or method not in self.methods:
            return None
        key = ("%d:%s:%d" % (self.seed, method, call_index)).encode()
        if zlib.crc32(key) / _HASH_SPAN >= self.rate:
            return None
        kinds = self._kinds_for(method)
        if not kinds:
            return None
        pick = zlib.crc32(b"kind:" + key) % len(kinds)
        return kinds[pick]

    def describe(self):
        """Human-readable one-liner (logged into chaos test output)."""
        parts = ["%s@%d=%s" % (m, n, k)
                 for (m, n), k in sorted(self.explicit.items())]
        if self.seed is not None and self.rate > 0.0:
            parts.append("seed=%d rate=%g methods=%s kinds=%s"
                         % (self.seed, self.rate, "|".join(self.methods),
                            "|".join(self.kinds)))
        if self.max_faults is not None:
            parts.append("max_faults=%d" % self.max_faults)
        return "; ".join(parts) if parts else "(no faults)"

    def __repr__(self):
        return "FaultPlan(%s)" % self.describe()


def plan_from_environment():
    """The plan spec'd by ``REPRO_FAULT_PLAN``, or an empty plan."""
    spec = os.environ.get(PLAN_ENV)
    if spec:
        return FaultPlan.parse(spec)
    return FaultPlan()


class FaultInjectingBackend(SatBackend):
    """A :class:`SatBackend` that injects a :class:`FaultPlan` in front
    of an inner backend.

    ``inner`` names the wrapped backend (any registry name, variants
    included); ``plan`` is a :class:`FaultPlan`, a spec string, or
    ``None`` (read ``REPRO_FAULT_PLAN``; empty plan when unset — the
    wrapper is then a pure passthrough).  Remaining keyword arguments
    are forwarded to the inner backend's constructor, so the sampler's
    weighted-polarity knobs pass straight through.

    ``calls`` counts every intercepted call per method — the 1-indexed
    counter the plan is consulted with — and ``faults`` logs each
    injected ``(method, call_index, kind)`` so tests can assert the
    exact fault sequence.
    """

    name = "faulty"

    def __init__(self, cnf=None, rng=None, inner="python", plan=None,
                 **inner_kwargs):
        if plan is None:
            plan = plan_from_environment()
        elif isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        self.plan = plan
        self.inner_name = inner
        self.capabilities = backend_capabilities(inner)
        self._inner = make_backend(inner, rng=rng, **inner_kwargs)
        self.calls = {}
        self.faults = []
        if cnf is not None:
            # Route the load through the wrapper so add_clause faults
            # can strike during CNF construction too.
            self.add_cnf(cnf)

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def _maybe_fault(self, method, deadline=None):
        """Count the call; raise/stall per the plan.

        Returns ``UNKNOWN`` when the plan demands an unknown verdict
        (``solve`` short-circuits on it), ``None`` to proceed.
        """
        index = self.calls[method] = self.calls.get(method, 0) + 1
        plan = self.plan
        if plan.max_faults is not None \
                and len(self.faults) >= plan.max_faults:
            return None
        kind = plan.fault_for(method, index)
        if kind is None:
            return None
        self.faults.append((method, index, kind))
        if kind == "unavailable":
            raise BackendUnavailableError(
                "injected fault: backend unavailable at %s call %d"
                % (method, index))
        if kind == "memory":
            raise MemoryError("injected fault: out of memory at %s "
                              "call %d" % (method, index))
        if kind == "stall":
            pause = plan.stall
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining is not None:
                    # Stall "past the deadline", but never hang a test:
                    # the sleep is bounded by the plan's stall budget.
                    pause = min(pause, remaining + 0.01)
            if pause > 0:
                time.sleep(pause)
            if method == "solve" and deadline is not None \
                    and deadline.expired():
                return UNKNOWN
            return None
        # kind == "unknown" (validated solve-only at plan construction)
        return UNKNOWN

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def ensure_vars(self, n):
        self._inner.ensure_vars(n)

    def reserve_var(self):
        return self._inner.reserve_var()

    def add_clause(self, lits, group=None):
        self._maybe_fault("add_clause")
        return self._inner.add_clause(lits, group=group)

    def new_group(self):
        self._maybe_fault("new_group")
        return self._inner.new_group()

    def release_group(self, group):
        self._maybe_fault("release_group")
        return self._inner.release_group(group)

    def solve(self, assumptions=(), conflict_budget=None, deadline=None):
        verdict = self._maybe_fault("solve", deadline=deadline)
        if verdict is not None:
            return verdict
        return self._inner.solve(assumptions=assumptions,
                                 conflict_budget=conflict_budget,
                                 deadline=deadline)

    @property
    def model(self):
        return self._inner.model

    @property
    def core(self):
        return self._inner.core

    @property
    def ok(self):
        return self._inner.ok

    @property
    def num_vars(self):
        return self._inner.num_vars

    # The sampler's persistent mode re-seeds the solver RNG and
    # refreshes polarity weights in place; forward both to the inner
    # backend (and hand the failover layer the inner RNG so a rebuilt
    # session continues the same stream).
    @property
    def rng(self):
        return getattr(self._inner, "rng", None)

    @rng.setter
    def rng(self, value):
        self._inner.rng = value

    @property
    def polarity_weights(self):
        return getattr(self._inner, "polarity_weights", None)

    def stats(self):
        out = dict(self._inner.stats())
        out["faults_injected"] = len(self.faults)
        return out
