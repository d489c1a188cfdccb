"""Constrained sampling substrate (the role CMSGen plays in the paper).

Manthan3's data-generation stage needs many *diverse* satisfying
assignments of the specification ϕ.  We approximate uniform sampling with
a randomized CDCL sampler: random branching order and random (optionally
per-variable weighted) polarities make independent solver runs land in
well-spread regions of the solution space.  The *adaptive weighting*
scheme mirrors Manthan's: after a pilot round, each existential variable's
polarity weight is set from its observed marginal so that skewed variables
keep appearing with both labels in the training data.

:mod:`repro.sampling.xor` encodes parity constraints as CNF clauses.
"""

from repro.sampling.sampler import Sampler
from repro.sampling.xor import add_parity_constraint

__all__ = [
    "Sampler",
    "add_parity_constraint",
]
