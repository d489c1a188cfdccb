"""Trajectory digests: the Manthan3 pipeline's output pinned by SHA-256.

One digest folds, per instance and in order, the instance name, the
status, the infix text of every function in ``y`` order and the FALSE
witness.  Two runs agree on the digest exactly when they agree on every
verdict and every synthesized function, so a single constant pins the
engine's whole trajectory the way ``TRAJECTORY_SHA256`` pins the CDCL
search in ``tests/sat/test_solver_trajectory.py``.

The runs use fixed seeds and no timeout: the repair-iteration cap bounds
them, so the digest does not depend on the clock, and with the
structural ``BoolExpr`` hash it does not depend on the process either
(memory layout, ``PYTHONHASHSEED``, earlier solves).

``PYTHONPATH=src python tests/trajectory.py engine false small_suite``
prints each digest and exits 1 if any differs from its pinned constant
(naming both on standard error).  A change that is meant to alter the
trajectory re-baselines the constants deliberately (update them from
that output, saying why in the change's description); any other change
must leave them alone.
"""

import hashlib

from repro.benchgen import (
    build_suite,
    generate_controller_instance,
    generate_pec_instance,
    generate_planted_instance,
)
from repro.core import Manthan3, Manthan3Config
from repro.dqbf.instance import DQBFInstance
from repro.formula.cnf import CNF

#: Digest of :func:`engine_cases` (planted/controller/pec families plus a
#: small-suite slice that used to vary between processes).
ENGINE_SHA256 = \
    "a763cbd6a6b1f77b123dc1ee8ba71dc7dbaa844f80ed955debdc3213ebebc199"

#: Digest of :func:`false_cases` (the three FALSE proof routes).
FALSE_SHA256 = \
    "05545b63bfe2fb8e30dc00a1e6f654bf43ce678fba8ed322d375cf6b943dfe45"

#: Digest of the whole ``small`` suite (built with seed 0, engine seed 5).
SMALL_SUITE_SHA256 = \
    "37ea1604b34c9ce5bb23350a85ec5f31dd3fbc1a7323e02bc5ab652bb7303c05"

#: ``small``-suite instances in the engine cases.  Under the old
#: address-based ``BoolExpr`` hash, ``pec_n20_..._s17`` ended SYNTHESIZED
#: or UNKNOWN, and ``pec_n6_..._s2`` and ``dpec_n20_..._s36`` returned
#: different functions, depending on the process.
SMALL_SLICE = ("pec_n6_o3_b2_d3_sat_s2", "succinct_sat_z8_r4.5_s11",
               "pec_n20_o3_b2_d3_sat_s17", "coupled_x10_w8_p2_s42",
               "dpec_n20_o3_w10_s36")


def fold(runs):
    """SHA-256 hex digest of ``(name, result)`` pairs, in order."""
    digest = hashlib.sha256()
    for name, result in runs:
        functions = None
        if result.functions is not None:
            functions = [(y, result.functions[y].to_infix())
                         for y in sorted(result.functions)]
        witness = None
        if result.witness is not None:
            witness = sorted(result.witness.items())
        digest.update(repr((name, result.status, functions,
                            witness)).encode() + b"\n")
    return digest.hexdigest()


def run_cases(cases):
    """Solve each ``(instance, seed)`` with Manthan3, no timeout."""
    return [(inst.name, Manthan3(Manthan3Config(seed=seed)).run(inst))
            for inst, seed in cases]


def pipeline_suite():
    """Small instances spanning the planted/controller/pec families."""
    instances = [
        generate_planted_instance(
            num_universals=14 + 2 * i, num_existentials=3, dep_width=12,
            region_width=3, rules_per_y=4, seed=40 + i)
        for i in range(3)
    ]
    instances.append(generate_controller_instance(
        num_state=3, num_disturbance=2, num_controls=2, observable=True,
        seed=44))
    instances.append(generate_pec_instance(
        num_inputs=5, num_outputs=2, num_boxes=1, depth=2,
        realizable=True, seed=45))
    return instances


def engine_cases():
    small = {inst.name: inst for inst in build_suite("small", seed=0)}
    return ([(inst, 9) for inst in pipeline_suite()]
            + [(small[name], 5) for name in SMALL_SLICE])


def false_cases():
    def make(clauses):
        return DQBFInstance([1], {2: [1]}, CNF(clauses))
    return [(make([[1]]), 2),              # extension
            (make([[2], [-2]]), 2),        # UNSAT matrix
            (make([[1], [1, 2]]), 2)]      # unit fastpath


def small_suite_cases():
    return [(inst, 5) for inst in build_suite("small", seed=0)]


PINNED = {"engine": ENGINE_SHA256, "false": FALSE_SHA256,
          "small_suite": SMALL_SUITE_SHA256}


if __name__ == "__main__":
    import sys

    mismatched = False
    for label in sys.argv[1:]:
        digest = fold(run_cases(globals()[label + "_cases"]()))
        print(label, digest)
        if digest != PINNED[label]:
            mismatched = True
            print("%s digest %s differs from the pinned %s"
                  % (label, digest, PINNED[label]), file=sys.stderr)
    sys.exit(1 if mismatched else 0)
