"""PERF — solution cache: hit path vs cold solve.

Times the full first-hit path — tier-1/2 lookup, remapping the stored
canonical vector through the witnessing permutation onto the submitted
instance's own numbering, and the SAT proof
(``check_henkin_vector_incremental``) — against the cold solve it
replaces, on hard planted instances.  Hits are measured on *permuted*
copies of the solved instance, so every hit exercises a genuinely
different variable numbering than the stored entry.  Each seed uses a
fresh cache and times one hit, which is therefore always proven by
SAT: only later hits in the same process on exact renamings of an
already proven instance skip SAT (see :mod:`repro.cache.resolve`), so
the speedup recorded here is the cache's floor.

Fingerprinting happens once at ingest (``Problem.fingerprint`` memoizes
it on the instance) and is therefore timed separately, not inside the
hit path; its cost is recorded in the JSON for the trajectory.

The summary is written to ``benchmarks/results/solution_cache.json`` so
the repo carries a recorded perf trajectory.

Knobs (environment variables):

* ``REPRO_BENCH_CACHE_SEEDS`` — comma-separated planted seeds
  (default ``0,1``)
* ``REPRO_BENCH_CACHE_MIN_SPEEDUP`` — acceptance floor override
  (default 20; the measured ratio on an idle machine is 25-40×)
"""

import json
import os
import random
import time

from benchmarks.conftest import RESULTS_DIR
from repro.benchgen import generate_planted_instance
from repro.cache import SolutionCache, cache_lookup, cache_store
from repro.cache.fingerprint import fingerprint_instance
from repro.core import Manthan3, Manthan3Config
from repro.core.result import Status
from repro.dqbf.instance import DQBFInstance
from repro.formula.cnf import CNF

ACCEPTANCE_SPEEDUP = 20.0

#: The hard planted shape: wide dependency sets and many region rules
#: keep the engine's repair loop busy for seconds while the certificate
#: stays checkable in tens of milliseconds.
SHAPE = dict(num_universals=36, num_existentials=12, dep_width=30,
             region_width=7, rules_per_y=20)


def _seeds():
    raw = os.environ.get("REPRO_BENCH_CACHE_SEEDS", "0,1")
    return [int(part) for part in raw.split(",") if part]


def _permuted_copy(instance, seed):
    """A renaming-equivalent copy under a random variable permutation."""
    rng = random.Random(seed)
    variables = list(instance.universals) + list(instance.existentials)
    images = list(variables)
    rng.shuffle(images)
    pi = dict(zip(variables, images))
    dependencies = {pi[y]: [pi[x] for x in deps]
                    for y, deps in instance.dependencies.items()}
    clauses = [[(1 if lit > 0 else -1) * pi[abs(lit)] for lit in clause]
               for clause in instance.matrix]
    rng.shuffle(clauses)
    return DQBFInstance([pi[x] for x in instance.universals],
                        dependencies,
                        CNF(clauses, num_vars=instance.matrix.num_vars),
                        name="%s-perm%d" % (instance.name, seed))


def test_cache_hit_vs_cold_solve():
    """Cold-solve each planted instance once, then time cache hits on
    permuted copies; persist the JSON summary and gate the speedup."""
    rows = []
    for seed in _seeds():
        instance = generate_planted_instance(
            seed=200 + seed, name="planted-cache-%d" % seed, **SHAPE)

        engine = Manthan3(Manthan3Config(seed=seed))
        started = time.perf_counter()
        cold = engine.run(instance, timeout=600)
        cold_s = time.perf_counter() - started
        assert cold.status == Status.SYNTHESIZED, cold.status

        cache = SolutionCache()
        assert cache_store(cache, instance, cold)

        copy = _permuted_copy(instance, seed)
        started = time.perf_counter()
        fingerprint_instance(copy)  # the ingest-time cost, memoized
        fingerprint_s = time.perf_counter() - started

        started = time.perf_counter()
        hit, info = cache_lookup(cache, copy)
        hit_s = time.perf_counter() - started
        assert hit is not None and info["hit"], info
        assert hit.status == Status.SYNTHESIZED

        rows.append({
            "instance": instance.name,
            "universals": SHAPE["num_universals"],
            "existentials": SHAPE["num_existentials"],
            "cold_s": round(cold_s, 4),
            "fingerprint_s": round(fingerprint_s, 4),
            "hit_s": round(hit_s, 4),
            "certify_s": round(info["certify_s"], 4),
            "speedup": round(cold_s / hit_s, 1) if hit_s > 0 else None,
        })

    total_cold = sum(row["cold_s"] for row in rows)
    total_hit = sum(row["hit_s"] for row in rows)
    summary = {
        "benchmark": "solution_cache",
        "shape": SHAPE,
        "rows": rows,
        "total_cold_s": round(total_cold, 4),
        "total_hit_s": round(total_hit, 4),
        "speedup": round(total_cold / total_hit, 1)
        if total_hit > 0 else None,
    }

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "solution_cache.json")
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    print("\n" + json.dumps(summary, indent=1, sort_keys=True))

    # Acceptance bar: the hit path is ≥20× faster than the cold solve
    # it replaces (overridable for noisy shared runners).
    floor = float(os.environ.get("REPRO_BENCH_CACHE_MIN_SPEEDUP",
                                 str(ACCEPTANCE_SPEEDUP)))
    assert summary["speedup"] and summary["speedup"] >= floor, summary
