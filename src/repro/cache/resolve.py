"""Cache consultation and population: the soundness gate.

Every entry point funnels through two functions:

* :func:`cache_lookup` fingerprints the instance, fetches the entry,
  remaps the stored canonical solution through the *inverse* witnessing
  permutation onto the instance's own numbering, and **proves the
  remapped claim for this instance** before returning it, in one of
  two ways:

  - by SAT (``check_henkin_vector_incremental`` /
    ``check_false_witness`` — the incremental checker returns the same
    verdicts as ``check_henkin_vector``, just faster);
  - by renaming: if the instance's image under its mapping (see
    :func:`_image`) equals the image of an instance this process
    already proved the same entry for by SAT, the two instances are
    exact renamings of each other.  Henkin validity (Lemma 1 plus the
    support condition) and falsity witnesses are invariant under a
    bijective renaming that keeps each variable's quantifier and maps
    ``H_y`` onto ``H_π(y)``, so the earlier proof covers this one.

  Only a proven result is ever returned; anything else — no entry,
  hash collision, corrupt payload, poisoned vector — evicts the entry
  and reports a miss, so the caller falls through to a cold solve.
  The image is built from the instance and the mapping alone, never
  from the fingerprint's digest, and the record of a SAT proof lives
  only on the in-memory entry (never on disk), so correctness never
  depends on the fingerprint or the store; they can only cost time.
* :func:`cache_store` writes a decisive outcome back, remapped *into*
  canonical numbering, so any equivalent future submission can use it.

Both stamp/return the ``stats["cache"]`` block campaign records carry:
``{"fingerprint", "hit", "proof"?, "certify_s"?, "evicted"?}``, where
``proof`` is ``"sat"`` or ``"renaming"`` on a hit.
"""

import time

from repro.cache.fingerprint import fingerprint_instance, remap_functions
from repro.cache.store import SolutionCache
from repro.core.result import Status, SynthesisResult
from repro.dqbf.certificates import (
    check_false_witness,
    check_henkin_vector_incremental,
)

__all__ = ["cache_lookup", "cache_store", "ensure_cache"]


def ensure_cache(cache):
    """Coerce a path (or None/``SolutionCache``) into a cache object."""
    if cache is None or isinstance(cache, SolutionCache):
        return cache
    return SolutionCache(cache)


def _image(instance, mapping):
    """``instance`` renamed through ``mapping``, or ``None``.

    The image is the universal set, the ``{y: H_y}`` pairs and the
    clause set, all in the mapping's ids.  Equal images of two
    instances make each an exact renaming of the other, which is what
    lets one SAT proof cover both.  ``None`` when ``mapping`` is not a
    bijection from the instance's own variables.
    """
    variables = set(instance.universals) | set(instance.dependencies)
    if (set(mapping) != variables
            or len(set(mapping.values())) != len(mapping)):
        return None
    return (frozenset(mapping[x] for x in instance.universals),
            {mapping[y]: frozenset(mapping[x] for x in deps)
             for y, deps in instance.dependencies.items()},
            frozenset(frozenset((1 if lit > 0 else -1) * mapping[abs(lit)]
                                for lit in clause)
                      for clause in instance.matrix))


def cache_lookup(cache, instance, certificate_budget=200_000):
    """Consult ``cache`` for ``instance``; returns ``(result, info)``.

    ``result`` is a :class:`SynthesisResult` proven for ``instance`` on
    a valid hit — by a SAT check or by exact renaming of an instance
    this process proved the same entry for by SAT, never unchecked —
    or ``None`` on a miss.  ``info`` is the ``stats["cache"]`` block
    either way (hits carry ``proof``; misses carry ``hit: False`` so
    cold records are attributable too, plus ``evicted: True`` when a
    poisoned entry was just dropped).
    """
    started = time.perf_counter()
    fingerprint = fingerprint_instance(instance)
    info = {"fingerprint": fingerprint.digest, "hit": False}
    entry = cache.get(fingerprint.digest)
    if entry is None:
        return None, info

    certify_started = time.perf_counter()
    try:
        inverse = fingerprint.inverse()
        if entry.status == Status.SYNTHESIZED:
            check = check_henkin_vector_incremental
            solution = remap_functions(entry.functions, inverse)
            claim = {"functions": solution}
        else:
            check = check_false_witness
            solution = {inverse[x]: value
                        for x, value in entry.witness.items()}
            claim = {"witness": solution,
                     "reason": "cached falsity witness"}
        image = _image(instance, fingerprint.mapping)
        if image is not None and image == entry.proven:
            proof = "renaming"
        elif check(instance, solution,
                   conflict_budget=certificate_budget).valid:
            entry.proven = image
            proof = "sat"
        else:
            proof = None
        if proof is not None:
            info.update(hit=True, proof=proof, certify_s=round(
                time.perf_counter() - certify_started, 6))
            stats = {"wall_time": round(time.perf_counter() - started, 6),
                     "cache": info}
            return SynthesisResult(entry.status, stats=stats,
                                   **claim), info
    except Exception:
        # A colliding digest can hand us an entry of the wrong shape
        # (KeyError in the remap, arity mismatches in the checker);
        # shape errors and refuted certificates get the same cure.
        pass

    cache.evict(fingerprint.digest)
    info["evicted"] = True
    return None, info


def cache_store(cache, instance, result):
    """Record a decisive cold-solve outcome; no-op otherwise.

    Only ``SYNTHESIZED`` vectors and witness-bearing ``FALSE``
    verdicts are cacheable (nothing else carries a re-checkable
    certificate).  Entries are stored in canonical numbering via the
    witnessing permutation.  Storing is optimistic — an uncertified or
    even wrong result cannot poison correctness because every hit is
    proven for the submitted instance before use.
    """
    if result.status == Status.SYNTHESIZED and result.functions:
        fingerprint = fingerprint_instance(instance)
        cache.put(fingerprint.digest, Status.SYNTHESIZED,
                  functions=remap_functions(result.functions,
                                            fingerprint.mapping))
        return True
    if result.status == Status.FALSE and result.witness is not None:
        fingerprint = fingerprint_instance(instance)
        mapping = fingerprint.mapping
        witness = {mapping[x]: bool(result.witness[x])
                   for x in instance.universals
                   if x in result.witness}
        if len(witness) == len(instance.universals):
            cache.put(fingerprint.digest, Status.FALSE, witness=witness)
            return True
    return False
