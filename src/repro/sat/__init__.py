"""SAT solving substrate.

A from-scratch CDCL solver (:class:`~repro.sat.solver.Solver`) in the
PicoSAT/MiniSat tradition: two-watched-literal propagation, first-UIP
clause learning with minimization, VSIDS branching, phase saving, Luby
restarts, learnt-clause garbage collection, an *assumption* interface, and
final-conflict analysis that yields UNSAT cores over the assumptions —
which is exactly the `FindCore` primitive Algorithm 3 of the paper needs.

The solver also exposes randomized polarity/branching knobs that the
constrained sampler (:mod:`repro.sampling`) builds on, playing the role of
CMSGen.

Oracle consumers reach the solver through the :class:`~repro.sat.backend.
SatBackend` protocol (:mod:`repro.sat.backend`): the CDCL above is the
reference ``python`` backend, ``python-emulated`` runs it behind the
generic selector-group emulation layer, and ``pysat`` bridges to the
optional python-sat package.
"""

from repro.sat.solver import Solver, SAT, UNSAT, UNKNOWN, solve_cnf
from repro.sat.backend import (
    BackendUnavailableError,
    PySATBackend,
    PythonBackend,
    SatBackend,
    available_backends,
    backend_available,
    backend_capabilities,
    backend_names,
    make_backend,
)

__all__ = [
    "Solver",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "solve_cnf",
    "SatBackend",
    "PythonBackend",
    "PySATBackend",
    "BackendUnavailableError",
    "available_backends",
    "backend_available",
    "backend_capabilities",
    "backend_names",
    "make_backend",
]
