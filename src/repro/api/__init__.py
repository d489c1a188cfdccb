"""repro.api — the single public surface of the reproduction.

Every front end (library callers, the CLI, portfolio workers, services)
shares this façade instead of reaching into internals:

* :class:`Problem` — ingest DQDIMACS/QDIMACS text, files, or in-memory
  instances, with content-based format detection;
* :class:`Solver` — a reusable handle built from an engine-spec name or
  an explicit phase list + config overrides; ``solve()`` runs it
  in-process, and :func:`solve_batch` runs several solvers on many
  problems over the portfolio worker pool;
* :class:`Solution` — results with first-class exports (Verilog, AIGER,
  compiled Python callables), independent certification, and a
  certificate round-trip through the exported artifact;
* typed events (:mod:`repro.api.events`) — subscribe listeners for
  ``PhaseStarted`` … ``SolveFinished`` streams, in-process or relayed
  from batch workers;
* :class:`CancellationToken` — cooperative cancellation with
  partial-bearing ``CANCELLED`` results.

Quickstart::

    from repro.api import Problem, Solver

    problem = Problem.from_file("circuit.dqdimacs")
    solver = Solver("manthan3", seed=0)
    solution = solver.solve(problem, timeout=60)
    if solution.synthesized and solution.certify().valid:
        print(solution.to_verilog())

See ``docs/API.md`` for the full tour.
"""

from repro.api.cancellation import CancellationToken
from repro.api.events import (
    CounterexampleFound,
    Event,
    PartialAvailable,
    PhaseFinished,
    PhaseStarted,
    RepairRound,
    SolveFinished,
)
from repro.api.problem import Problem, detect_format
from repro.api.solution import Solution
from repro.api.solver import BatchResult, Solver, solve, solve_batch
from repro.core.result import Status
from repro.portfolio.parallel import engine_names

__all__ = [
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
