"""Cross-engine integration tests.

The complete expansion engine serves as ground truth on small instances;
Manthan3 and the Pedant-like engine must never contradict it, and every
synthesized vector from any engine must pass the independent certificate
check.
"""

import random

import pytest

from repro.baselines import ExpansionSynthesizer, PedantLikeSynthesizer
from repro.core import Manthan3, Manthan3Config, Status
from repro.dqbf import check_henkin_vector

from tests.conftest import random_small_dqbf


@pytest.fixture(scope="module")
def engines():
    return {
        "manthan3": Manthan3(Manthan3Config(num_samples=50, seed=3,
                                            max_repair_iterations=80)),
        "expansion": ExpansionSynthesizer(),
        "pedant": PedantLikeSynthesizer(),
    }


class TestAgreement:
    def test_engines_never_contradict(self, engines):
        rng = random.Random(2025)
        solved_by_all = 0
        for trial in range(20):
            inst = random_small_dqbf(rng)
            truth = engines["expansion"].run(inst, timeout=30)
            assert truth.status in (Status.SYNTHESIZED, Status.FALSE)
            is_true = truth.status == Status.SYNTHESIZED
            for name in ("manthan3", "pedant"):
                result = engines[name].run(inst, timeout=30)
                if result.status == Status.SYNTHESIZED:
                    assert is_true, (trial, name)
                    cert = check_henkin_vector(inst, result.functions)
                    assert cert.valid, (trial, name, cert.reason)
                elif result.status == Status.FALSE:
                    assert not is_true, (trial, name)
            if is_true:
                solved_by_all += 1
        assert solved_by_all >= 4

    def test_paper_example_all_engines(self, engines,
                                       paper_example_instance):
        for name, engine in engines.items():
            result = engine.run(paper_example_instance, timeout=60)
            assert result.status == Status.SYNTHESIZED, name
            cert = check_henkin_vector(paper_example_instance,
                                       result.functions)
            assert cert.valid, (name, cert.reason)

    def test_false_instance_all_engines(self, engines, false_instance):
        for name in ("expansion", "pedant"):
            result = engines[name].run(false_instance, timeout=30)
            assert result.status == Status.FALSE, name
        # Manthan3 cannot prove this one False (§5): UNKNOWN is correct.
        m3 = engines["manthan3"].run(false_instance, timeout=30)
        assert m3.status in (Status.FALSE, Status.UNKNOWN)


class TestSuiteSmoke:
    def test_smoke_suite_portfolio(self, engines):
        """The whole pipeline: suite → three engines → VBS analytics."""
        from repro.benchgen import build_suite
        from repro.portfolio import run_campaign, solved_counts, \
            unique_solves, vbs_times

        suite = build_suite("smoke", seed=0)
        table = run_campaign(suite, list(engines.values()), timeout=5)
        counts = solved_counts(table)
        # every engine solves something
        assert all(c > 0 for c in counts.values()), counts
        # the VBS with Manthan3 dominates the baselines-only VBS
        vbs_without = vbs_times(table, ["expansion", "pedant"])
        vbs_with = vbs_times(table, ["manthan3", "expansion", "pedant"])
        assert len(vbs_with) >= len(vbs_without)
