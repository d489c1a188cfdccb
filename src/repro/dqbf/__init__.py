"""DQBF problem model.

:class:`~repro.dqbf.instance.DQBFInstance` captures
``∀X ∃^{H1} y1 … ∃^{Hm} ym . ϕ(X, Y)`` — universal variables, existential
variables with Henkin dependency sets, and a CNF matrix.

:mod:`repro.dqbf.certificates` provides the independent checker that every
engine's output is validated against: a claimed Henkin function vector is
accepted only if each function's support respects its dependency set *and*
``¬ϕ(X, f(H))`` is unsatisfiable (Lemma 1 of the paper).
"""

from repro.dqbf.instance import DQBFInstance, skolem_instance
from repro.dqbf.certificates import (
    CertificateResult,
    check_false_witness,
    check_henkin_vector,
)

__all__ = [
    "DQBFInstance",
    "skolem_instance",
    "CertificateResult",
    "check_false_witness",
    "check_henkin_vector",
]
