"""End-to-end tests for the Manthan3 engine."""

import random

import pytest

from repro.core import Manthan3, Manthan3Config, Status, synthesize
from repro.dqbf import check_henkin_vector
from repro.dqbf.instance import DQBFInstance
from repro.formula.cnf import CNF

from tests.conftest import brute_force_dqbf_true, random_small_dqbf


def make(universals, deps, clauses):
    return DQBFInstance(universals, deps, CNF(clauses))


class TestPaperExamples:
    def test_example_1_synthesizes(self, paper_example_instance):
        result = synthesize(paper_example_instance, timeout=60)
        assert result.status == Status.SYNTHESIZED
        cert = check_henkin_vector(paper_example_instance,
                                   result.functions)
        assert cert.valid, cert.reason

    def test_example_1_function_supports(self, paper_example_instance):
        result = synthesize(paper_example_instance, timeout=60)
        for y, f in result.functions.items():
            assert f.support() <= paper_example_instance.dependencies[y]

    def test_limitation_example_never_unsound(
            self, limitation_example_instance):
        """§5 instance: the engine may solve it (lucky learning) or
        report UNKNOWN — but never FALSE, and any vector must certify."""
        result = synthesize(limitation_example_instance, timeout=30)
        assert result.status in (Status.SYNTHESIZED, Status.UNKNOWN)
        if result.synthesized:
            assert check_henkin_vector(limitation_example_instance,
                                       result.functions).valid


class TestVerdicts:
    def test_unsat_matrix_is_false(self):
        inst = make([1], {2: [1]}, [[2], [-2]])
        assert synthesize(inst, timeout=30).status == Status.FALSE

    def test_false_by_extension_check(self):
        # clause (x1) cannot be satisfied when x1=0.
        inst = make([1], {2: [1]}, [[1]])
        assert synthesize(inst, timeout=30).status == Status.FALSE

    def test_skolem_special_case(self):
        # ∀x1x2 ∃y (full deps): y ↔ (x1 ∧ x2)
        inst = make([1, 2], {3: [1, 2]},
                    [[-3, 1], [-3, 2], [3, -1, -2]])
        result = synthesize(inst, timeout=30)
        assert result.status == Status.SYNTHESIZED
        assert check_henkin_vector(inst, result.functions).valid

    def test_empty_dependency_sets(self):
        # y unconstrained with H = ∅: any constant works.
        inst = make([1], {2: []}, [[1, 2], [-1, 2]])
        result = synthesize(inst, timeout=30)
        assert result.status == Status.SYNTHESIZED
        assert result.functions[2].is_const()

    def test_no_existentials_tautology(self):
        inst = DQBFInstance([1], {}, CNF([[1, -1]]))
        result = synthesize(inst, timeout=30)
        assert result.status == Status.SYNTHESIZED
        assert result.functions == {}

    def test_timeout_reported(self):
        from repro.benchgen import generate_planted_instance

        inst = generate_planted_instance(seed=3)
        result = synthesize(inst, timeout=0.0)
        assert result.status == Status.TIMEOUT


class TestConfig:
    def test_ablation_flags_run(self, paper_example_instance):
        for overrides in ({"use_y_features": False},
                          {"use_yhat_constraint": False},
                          {"adaptive_sampling": False},
                          {"use_unate_detection": False,
                           "use_unique_extraction": False}):
            config = Manthan3Config(seed=1, **overrides)
            result = Manthan3(config).run(paper_example_instance,
                                          timeout=60)
            assert result.status in (Status.SYNTHESIZED, Status.UNKNOWN)
            if result.synthesized:
                assert check_henkin_vector(paper_example_instance,
                                           result.functions).valid

    def test_removed_engine_forks_fail_loudly(self):
        """The fresh-oracle and row-wise paths are gone; selecting them
        must error, not silently run the default engine."""
        from repro.api import Solver
        from repro.utils.errors import ReproError

        with pytest.raises(TypeError, match="incremental"):
            Manthan3Config(incremental=False)
        with pytest.raises(TypeError, match="bitparallel"):
            Solver("manthan3", overrides={"bitparallel": False})
        with pytest.raises(ReproError, match="unknown engine"):
            Solver("manthan3-fresh")

    def test_stats_populated(self, paper_example_instance):
        result = synthesize(paper_example_instance, timeout=60)
        assert result.stats["samples"] > 0
        assert "wall_time" in result.stats


class TestSoundnessFuzz:
    def test_never_wrong_on_small_instances(self):
        """On tiny random DQBFs, compare against brute-force ground
        truth: SYNTHESIZED ⇒ True (and certified), FALSE ⇒ False."""
        rng = random.Random(101)
        config = Manthan3Config(num_samples=40, seed=7,
                                max_repair_iterations=60)
        engine = Manthan3(config)
        outcomes = {"checked": 0, "synthesized": 0, "false": 0}
        for trial in range(25):
            inst = random_small_dqbf(rng)
            truth = brute_force_dqbf_true(inst)
            result = engine.run(inst, timeout=20)
            outcomes["checked"] += 1
            if result.status == Status.SYNTHESIZED:
                outcomes["synthesized"] += 1
                assert truth is True, (trial, inst.matrix.clauses)
                cert = check_henkin_vector(inst, result.functions)
                assert cert.valid, (trial, cert.reason)
            elif result.status == Status.FALSE:
                outcomes["false"] += 1
                assert truth is False, (trial, inst.matrix.clauses)
        # random tiny DQBFs skew False; just require a healthy mix
        assert outcomes["synthesized"] >= 3
        assert outcomes["false"] >= 3
