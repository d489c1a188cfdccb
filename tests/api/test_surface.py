"""Public-API snapshot: the documented surface cannot silently rot.

``repro.api.__all__`` and the signatures of every public callable are
frozen here.  A failing test means the public surface changed: that is
allowed, but it must be *deliberate* — update the snapshot in the same
change that updates ``docs/API.md`` and the examples.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import warnings

import pytest

import repro
import repro.api as api

FROZEN_ALL = [
    "BatchResult",
    "CancellationToken",
    "CounterexampleFound",
    "Event",
    "PartialAvailable",
    "PhaseFinished",
    "PhaseStarted",
    "Problem",
    "RepairRound",
    "Solution",
    "SolveFinished",
    "Solver",
    "Status",
    "detect_format",
    "engine_names",
    "solve",
    "solve_batch",
]

FROZEN_SIGNATURES = {
    "Problem.from_text":
        "(text, fmt='auto', name=None, source=None)",
    "Problem.from_file": "(path, fmt='auto')",
    "Problem.from_instance": "(instance)",
    "Problem.load": "(source, fmt='auto')",
    "Solver.__init__":
        "(self, engine='manthan3', seed=None, phases=None, "
        "overrides=None, config=None, name=None, cache=None)",
    "Solver.solve": "(self, problem, timeout=None, cancel=None)",
    "Solver.solve_batch":
        "(self, problems, timeout=None, jobs=1, seed=None, "
        "certify=True, certificate_budget=200000, store=None, "
        "resume=False, progress=None, cancel=None, max_retries=0, "
        "retry_backoff=0.25, memory_limit_mb=None, elastic=False, "
        "worker_id=None, lease_duration=30.0, solution_cache=None)",
    "Solver.subscribe": "(self, listener)",
    "Solver.unsubscribe": "(self, listener)",
    "Solution.to_verilog": "(self, module_name='henkin_patch')",
    "Solution.to_aiger": "(self)",
    "Solution.to_python_callable": "(self)",
    "Solution.certify": "(self, conflict_budget=None)",
    "Solution.roundtrip_check": "(self, conflict_budget=None)",
    "CancellationToken.cancel": "(self)",
    "solve":
        "(problem, engine='manthan3', seed=None, timeout=None, "
        "listeners=None, cancel=None, **solver_kwargs)",
    "solve_batch":
        "(problems, solvers, timeout=None, jobs=1, seed=None, "
        "certify=True, certificate_budget=200000, store=None, "
        "resume=False, progress=None, cancel=None, max_retries=0, "
        "retry_backoff=0.25, memory_limit_mb=None, elastic=False, "
        "worker_id=None, lease_duration=30.0, solution_cache=None)",
    "detect_format": "(text, path=None)",
}

#: Event fields are part of the wire format (batch IPC relay) as well
#: as the listener API.
FROZEN_EVENT_FIELDS = {
    "PhaseStarted": ["engine", "instance", "phase"],
    "PhaseFinished": ["elapsed", "engine", "instance", "phase"],
    "CounterexampleFound": ["engine", "instance", "iteration",
                            "sigma_x"],
    "RepairRound": ["engine", "instance", "iteration", "modified",
                    "stagnation"],
    "PartialAvailable": ["engine", "functions", "instance", "verified"],
    "SolveFinished": ["engine", "instance", "reason", "status",
                      "wall_time"],
}


def _resolve(dotted):
    obj = api
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class TestSurfaceSnapshot:
    def test_all_is_frozen(self):
        assert sorted(api.__all__) == FROZEN_ALL

    def test_every_all_entry_exists(self):
        # The root package and every subpackage: a name deleted from a
        # module but left in its package's __all__ fails here.
        module_names = ["repro"] + [
            "repro." + info.name for info in pkgutil.iter_modules(
                repro.__path__) if info.ispkg]
        assert "repro.sat" in module_names
        for module_name in module_names:
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert getattr(module, name, None) is not None, \
                    "%s.__all__ names missing %r" % (module_name, name)

    def test_signatures_are_frozen(self):
        for dotted, expected in FROZEN_SIGNATURES.items():
            got = str(inspect.signature(_resolve(dotted)))
            assert got == expected, \
                "%s changed: %s (snapshot: %s)" % (dotted, got, expected)

    def test_event_fields_are_frozen(self):
        for name, fields in FROZEN_EVENT_FIELDS.items():
            cls = getattr(api, name)
            slots = sorted(
                slot for klass in cls.__mro__
                for slot in getattr(klass, "__slots__", ()))
            assert slots == fields, name

    def test_root_reexports_the_facade(self):
        for name in ("Problem", "Solver", "Solution", "BatchResult",
                     "CancellationToken", "solve", "solve_batch",
                     "api"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_engine_registry_is_reachable(self):
        names = api.engine_names()
        assert "manthan3" in names and "expansion" in names


class TestRootNamespace:
    def test_facade_names_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repro.Problem
            repro.Solver
            repro.Solution
            repro.CancellationToken
            repro.solve
            repro.solve_batch
            repro.api
            repro.Manthan3Config
            repro.Status

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_star_import_is_warning_free(self):
        """Every ``repro.__all__`` name resolves, and none warns."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c",
             "from repro import *"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
