"""Tests for the portfolio runner and result table."""

from repro.cache import SolutionCache, resolve
from repro.core.result import Status, SynthesisResult
from repro.dqbf.certificates import CERTIFICATE_BUDGET
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.portfolio.parallel import run_campaign
from repro.portfolio import runner
from repro.portfolio.runner import ResultTable, RunRecord


def make_instance(name):
    cnf = CNF([[-2, 1], [2, -1]])
    return DQBFInstance([1], {2: [1]}, cnf, name=name)


class FakeEngine:
    """Deterministic engine stub for runner tests."""

    def __init__(self, name, verdicts):
        self.name = name
        self.verdicts = verdicts

    def run(self, instance, timeout=None):
        verdict = self.verdicts[instance.name]
        if verdict == "good":
            return SynthesisResult(Status.SYNTHESIZED,
                                   functions={2: bf.var(1)},
                                   stats={"wall_time": 0.1})
        if verdict == "bad":
            return SynthesisResult(Status.SYNTHESIZED,
                                   functions={2: bf.not_(bf.var(1))},
                                   stats={"wall_time": 0.1})
        if verdict == "false":
            return SynthesisResult(Status.FALSE, witness={1: True},
                                   stats={"wall_time": 0.1})
        return SynthesisResult(Status.UNKNOWN, stats={"wall_time": 0.2})


class TestRunner:
    def test_records_all_pairs(self):
        instances = [make_instance("a"), make_instance("b")]
        engines = [FakeEngine("e1", {"a": "good", "b": "unknown"}),
                   FakeEngine("e2", {"a": "unknown", "b": "good"})]
        table = run_campaign(instances, engines, timeout=5)
        assert len(table.records) == 4
        assert table.engines() == ["e1", "e2"]
        assert table.instances() == ["a", "b"]

    def test_certification_blocks_cheating(self):
        """An engine returning a wrong vector must not count as solved."""
        instances = [make_instance("a")]
        engines = [FakeEngine("cheat", {"a": "bad"})]
        table = run_campaign(instances, engines, timeout=5)
        record = table.records[0]
        assert record.status == "INVALID"
        assert not record.solved
        assert table.solved_instances("cheat") == set()

    def test_valid_vector_certified(self):
        instances = [make_instance("a")]
        table = run_campaign(instances,
                             [FakeEngine("e", {"a": "good"})], timeout=5)
        assert table.records[0].solved
        assert table.time_of("e", "a") == 0.1

    def test_time_of_unsolved_is_none(self):
        instances = [make_instance("a")]
        table = run_campaign(instances,
                             [FakeEngine("e", {"a": "unknown"})],
                             timeout=5)
        assert table.time_of("e", "a") is None

    def test_progress_callback(self):
        seen = []
        run_campaign([make_instance("a")],
                     [FakeEngine("e", {"a": "good"})], timeout=5,
                     progress=seen.append)
        assert len(seen) == 1
        assert isinstance(seen[0], RunRecord)

    def test_real_engines_smoke(self, paper_example_instance):
        from repro.baselines import ExpansionSynthesizer
        from repro.core import Manthan3

        table = run_campaign([paper_example_instance],
                             [Manthan3(), ExpansionSynthesizer()],
                             timeout=30)
        assert len(table.solved_instances("manthan3")) == 1
        assert len(table.solved_instances("expansion")) == 1


class TestCertificateBudget:
    """Every certification a campaign makes — its records' claims and
    its solution-cache hits — runs under ``CERTIFICATE_BUDGET``."""

    @staticmethod
    def _spy(monkeypatch, module, name, calls):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            calls.append((name, kwargs.get("conflict_budget")))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    def test_campaign_records_certify_under_the_budget(self, monkeypatch):
        calls = []
        for name in ("check_henkin_vector", "check_false_witness"):
            self._spy(monkeypatch, runner, name, calls)
        table = run_campaign(
            [make_instance("a"), make_instance("b")],
            [FakeEngine("e", {"a": "good", "b": "false"})], timeout=5)
        assert sorted(calls) == [
            ("check_false_witness", CERTIFICATE_BUDGET),
            ("check_henkin_vector", CERTIFICATE_BUDGET)]
        # the true instance refutes the witness; the vector is valid
        assert [r.certified for r in table.records] == [True, False]

    def test_cache_hits_certify_under_the_budget(self, monkeypatch):
        cache = SolutionCache()
        engine = FakeEngine("e", {"a": "good"})
        run_campaign([make_instance("a")], [engine], timeout=5,
                     solution_cache=cache)
        calls = []
        for name in ("check_henkin_vector_incremental",
                     "check_false_witness"):
            self._spy(monkeypatch, resolve, name, calls)
        table = run_campaign([make_instance("a")], [engine], timeout=5,
                             solution_cache=cache)
        assert table.records[0].stats["cache"]["proof"] == "sat"
        assert calls == [("check_henkin_vector_incremental",
                          CERTIFICATE_BUDGET)]


class TestResultTable:
    def test_record_lookup(self):
        table = ResultTable()
        record = RunRecord("e", "i", Status.SYNTHESIZED, 1.0,
                           certified=True)
        table.add(record)
        assert table.record_for("e", "i") is record
        assert table.record_for("e", "other") is None

    def test_by_engine(self):
        table = ResultTable([
            RunRecord("a", "i", Status.UNKNOWN, 1.0),
            RunRecord("b", "i", Status.UNKNOWN, 1.0)])
        assert len(table.by_engine("a")) == 1
