"""End-to-end determinism: same seed ⇒ same verdicts and functions.

Reproducibility matters for an evaluation artifact; these tests pin it
for every engine on representative instances, within one process and
across fresh processes.
"""

import os
import subprocess
import sys

import repro
from repro.baselines import (
    BDDSynthesizer,
    ExpansionSynthesizer,
    PedantLikeSynthesizer,
)
from repro.core import Manthan3, Manthan3Config
from repro.benchgen import generate_pec_instance, build_suite
import trajectory


def _functions_signature(result):
    if not result.synthesized:
        return result.status
    return {y: f.to_infix() for y, f in sorted(result.functions.items())}


class TestEngineDeterminism:
    def test_manthan3_deterministic_under_seed(self):
        inst = generate_pec_instance(num_inputs=6, num_outputs=3,
                                     num_boxes=2, depth=3, seed=3)
        a = Manthan3(Manthan3Config(seed=5)).run(inst, timeout=30)
        b = Manthan3(Manthan3Config(seed=5)).run(inst, timeout=30)
        assert a.status == b.status
        assert _functions_signature(a) == _functions_signature(b)

    def test_baselines_deterministic(self):
        inst = generate_pec_instance(num_inputs=5, num_outputs=2,
                                     num_boxes=1, depth=2, seed=9)
        for engine_cls in (ExpansionSynthesizer, PedantLikeSynthesizer,
                           BDDSynthesizer):
            a = engine_cls(seed=1).run(inst, timeout=30)
            b = engine_cls(seed=1).run(inst, timeout=30)
            assert a.status == b.status, engine_cls.__name__
            assert _functions_signature(a) == _functions_signature(b)

    def test_default_seeds_are_fixed(self):
        """``seed=None`` maps to the library default: still repeatable."""
        inst = build_suite("smoke", seed=2)[0]
        a = Manthan3().run(inst, timeout=30)
        b = Manthan3().run(inst, timeout=30)
        assert a.status == b.status
        assert _functions_signature(a) == _functions_signature(b)


class TestCrossProcessDeterminism:
    def test_trajectory_digest_independent_of_process(self):
        """Fresh interpreters with different ``PYTHONHASHSEED``s (and so
        different string hashes and memory layouts) reproduce the pinned
        Manthan3 trajectory."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        procs = []
        for hash_seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            procs.append(subprocess.Popen(
                [sys.executable, trajectory.__file__, "engine", "false"],
                env=env, stdout=subprocess.PIPE, text=True))
        want = "engine %s\nfalse %s\n" % (trajectory.ENGINE_SHA256,
                                           trajectory.FALSE_SHA256)
        for proc in procs:
            out, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0
            assert out == want
