"""MaxSAT substrate (the role Open-WBO plays in the paper).

Given hard clauses and *soft* clauses, find a model of the hards that
maximizes the number of satisfied softs.  Manthan3's ``FindCandi``
(Algorithm 3, line 2) asks for this with ``ϕ ∧ (X ↔ σ[X])`` hard and
the unit clauses ``(yi ↔ σ[y'_i])`` soft; the falsified softs name the
repair candidates.

Two complete algorithms are provided:

* :func:`~repro.maxsat.fumalik.fu_malik_on` — core-guided Fu–Malik
  (WPM1) on a live SAT backend whose clauses are the hards, under
  assumptions that act as extra hards for one call.  Each call's
  relaxation clauses live in one clause group that the call releases,
  and the variables it reserved are fixed at level 0, so the backend
  stays fit for its other queries.  ``FindCandi`` runs it on the
  engine's persistent ϕ-solver with ``σ[X]`` as the assumptions;
  :func:`~repro.maxsat.fumalik.fu_malik` runs it on a solver built from
  a CNF;
* :func:`~repro.maxsat.linear.linear_search` — model-improving LSU search
  with a sequential-counter cardinality encoding; the cost oracle the
  tests check Fu–Malik against.

:func:`solve_maxsat` picks one of the two for a CNF of hards.
"""

from repro.maxsat.types import MaxSatResult, SoftClause
from repro.maxsat.fumalik import fu_malik, fu_malik_on
from repro.maxsat.linear import linear_search
from repro.maxsat.cardinality import encode_at_most_k

from repro.utils.errors import ReproError


def solve_maxsat(hard, softs, algorithm="fu-malik", rng=None, deadline=None):
    """Maximize satisfied soft clauses subject to the hard CNF.

    Parameters
    ----------
    hard:
        :class:`~repro.formula.cnf.CNF` of hard constraints.
    softs:
        Iterable of literal iterables (each one soft clause, weight 1).
    algorithm:
        ``"fu-malik"`` (default) or ``"linear"``.

    Returns a :class:`MaxSatResult` (``cost`` = number of falsified softs,
    ``model`` over the hard formula's variables, ``satisfiable`` False when
    the hards alone are UNSAT).
    """
    if algorithm == "fu-malik":
        return fu_malik(hard, softs, rng=rng, deadline=deadline)
    if algorithm == "linear":
        return linear_search(hard, softs, rng=rng, deadline=deadline)
    raise ReproError("unknown MaxSAT algorithm %r" % algorithm)


__all__ = [
    "solve_maxsat",
    "fu_malik",
    "fu_malik_on",
    "linear_search",
    "MaxSatResult",
    "SoftClause",
    "encode_at_most_k",
]
