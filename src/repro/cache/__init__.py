"""Canonical instance fingerprints and the certified solution cache.

At millions-of-users scale the dominant workload is *resubmission*:
the same circuit/specification arrives again and again, usually with
fresh variable numbering and shuffled clauses.  This package turns
those into near-constant-time answers:

* :mod:`repro.cache.fingerprint` — a variable-renaming-invariant
  digest of a :class:`~repro.dqbf.instance.DQBFInstance` built by
  color-refinement over the variable/clause incidence structure, with
  the witnessing permutation recovered so cached Skolem vectors can be
  remapped onto the submitted numbering;
* :mod:`repro.cache.store` — the two-tier :class:`SolutionCache`
  (in-process LRU over an append-only JSONL index + AIGER payloads,
  safe under concurrent elastic workers);
* :mod:`repro.cache.resolve` — the lookup/store gate every entry point
  (``Solver.solve``, ``solve_batch``, ``ElasticWorker``) goes through.
  **Every hit is proven for the submitted instance** before it is
  returned — by a SAT check, or by exact renaming of an instance this
  process already proved the same entry for by SAT — so a hash
  collision or a corrupt entry can cost time, never correctness.
"""

from repro.cache.fingerprint import (
    Fingerprint,
    fingerprint_instance,
    remap_functions,
)
from repro.cache.resolve import cache_lookup, cache_store, ensure_cache
from repro.cache.store import CacheEntry, SolutionCache

__all__ = [
    "CacheEntry",
    "Fingerprint",
    "SolutionCache",
    "cache_lookup",
    "cache_store",
    "ensure_cache",
    "fingerprint_instance",
    "remap_functions",
]
