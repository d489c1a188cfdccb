"""Definition extraction for uniquely defined variables.

Plays the role of UNIQUE (Slivovsky 2020) in the paper's pipeline and of
the definition-extraction core of the Pedant baseline: an existential
``y`` that is *uniquely defined* by its dependency set ``H`` under ϕ needs
no learning and no repair — its definition can be computed once and
substituted.

Three mechanisms, cheapest first:

* :func:`~repro.definability.gates.find_gate_definitions` — syntactic
  matching of Tseitin gate patterns (AND/OR/XOR/equality) in the clause
  database;
* :func:`~repro.definability.padoa.is_uniquely_defined` — Padoa's method:
  a SAT check on two copies of ϕ sharing ``H``;
* :func:`~repro.definability.padoa.extract_definition` — truth-table
  extraction over small ``H`` via one SAT query per row (an
  interpolation-free stand-in for UNIQUE's interpolants).
"""

from repro.definability.gates import GateDefinition, find_gate_definitions
from repro.definability.padoa import (
    is_uniquely_defined,
    extract_definition,
)

__all__ = [
    "GateDefinition",
    "find_gate_definitions",
    "is_uniquely_defined",
    "extract_definition",
]
