"""Cache wiring at every entry point: facade, campaigns, elastic, CLI."""

import pytest

from repro.api import Problem, Solver
from repro.benchgen import generate_planted_instance
from repro.cache import SolutionCache
from repro.core.result import Status
from repro.portfolio.elastic import run_elastic_worker
from repro.portfolio.parallel import run_campaign
from repro.portfolio.report import cache_summary, render_report

from tests.cache.conftest import permuted_copy


def planted(seed=31, name=None):
    return generate_planted_instance(
        num_universals=10, num_existentials=3, dep_width=6,
        region_width=2, rules_per_y=3, seed=seed,
        name=name or ("planted-%d" % seed))


def suite(n=2):
    return [planted(31 + i) for i in range(n)]


def _signature(functions):
    if functions is None:
        return None
    return {y: f.to_infix() for y, f in sorted(functions.items())}


class TestSolverFacade:
    def test_cold_then_hit_on_equivalent_instance(self):
        cache = SolutionCache()
        solver = Solver("manthan3", seed=7, cache=cache)
        base = planted()
        cold = solver.solve(Problem.from_instance(base), timeout=60)
        assert cold.status == Status.SYNTHESIZED
        assert cold.stats["cache"]["hit"] is False
        assert len(cache) == 1

        copy, _pi = permuted_copy(base, 0)
        hit = solver.solve(Problem.from_instance(copy), timeout=60)
        assert hit.status == Status.SYNTHESIZED
        assert hit.stats["cache"]["hit"] is True
        # a cache hit is pre-certified; certify() agrees
        assert hit.certified is True
        assert hit.certify().valid

    def test_solver_accepts_a_cache_path(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        base = planted()
        first = Solver("manthan3", seed=7, cache=path)
        cold = first.solve(base, timeout=60)
        assert cold.status == Status.SYNTHESIZED
        # a different handle sharing only the path gets the hit
        second = Solver("manthan3", seed=7, cache=path)
        hit = second.solve(permuted_copy(base, 1)[0], timeout=60)
        assert hit.stats["cache"]["hit"] is True

    def test_no_cache_no_stamp(self):
        solution = Solver("manthan3", seed=7).solve(planted(),
                                                    timeout=60)
        assert "cache" not in solution.stats


class TestCampaign:
    def test_second_pass_is_all_hits(self, tmp_path):
        instances = suite()
        path = str(tmp_path / "cache.jsonl")
        first = run_campaign(instances, ["manthan3"], timeout=60,
                             seed=7, solution_cache=path)
        assert all(r.stats["cache"]["hit"] is False
                   for r in first.records)
        second = run_campaign(instances, ["manthan3"], timeout=60,
                              seed=7, solution_cache=path)
        assert all(r.stats["cache"]["hit"] is True
                   for r in second.records)
        assert all(r.certified is True for r in second.records)
        assert sorted((r.engine, r.instance, r.status)
                      for r in first.records) \
            == sorted((r.engine, r.instance, r.status)
                      for r in second.records)

    def test_one_lookup_answers_every_engine_pair(self, tmp_path):
        instances = suite(1)
        path = str(tmp_path / "cache.jsonl")
        run_campaign(instances, ["manthan3"], timeout=60, seed=7,
                     solution_cache=path)
        table = run_campaign(instances, ["manthan3", "expansion"],
                             timeout=60, seed=7, solution_cache=path)
        hits = [r for r in table.records if r.stats["cache"]["hit"]]
        assert len(hits) == 2  # both engine pairs answered by one entry

    def test_pool_workers_share_the_disk_cache(self, tmp_path):
        instances = suite()
        path = str(tmp_path / "cache.jsonl")
        run_campaign(instances, ["manthan3"], timeout=60, seed=7,
                     solution_cache=path)
        table = run_campaign(instances, ["manthan3"], timeout=60,
                             seed=7, jobs=2, solution_cache=path)
        assert all(r.stats["cache"]["hit"] is True
                   for r in table.records)

    def test_miss_trajectories_match_uncached_runs(self):
        """An empty cache must not perturb campaign results: statuses
        AND functions bit-identical to a no-cache run."""
        instances = suite()
        plain = run_campaign(instances, ["manthan3"], timeout=60,
                             seed=7, keep_results=True)
        cached = run_campaign([planted(31), planted(32)], ["manthan3"],
                              timeout=60, seed=7, keep_results=True,
                              solution_cache=SolutionCache())
        assert len(plain.records) == len(cached.records)
        for a, b in zip(plain.records, cached.records):
            assert (a.engine, a.instance, a.status, a.certified) \
                == (b.engine, b.instance, b.status, b.certified)
            assert _signature(a.result.functions) \
                == _signature(b.result.functions)

    def test_report_renders_cache_section_only_when_present(self,
                                                            tmp_path):
        instances = suite(1)
        plain = run_campaign(instances, ["manthan3"], timeout=60,
                             seed=7)
        assert cache_summary(plain) is None
        assert not any("solution cache" in line
                       for line in render_report(plain))
        path = str(tmp_path / "cache.jsonl")
        run_campaign(instances, ["manthan3"], timeout=60, seed=7,
                     solution_cache=path)
        # A fresh process-side cache proves its first hit by SAT; the
        # renamed copy of the same instance is then proven by renaming.
        cached = run_campaign([planted(31),
                               permuted_copy(planted(31), 0)[0]],
                              ["manthan3"], timeout=60, seed=7,
                              solution_cache=path)
        summary = cache_summary(cached)
        assert summary["hits"] == 2 and summary["misses"] == 0
        assert summary["proved"] == {"sat": 1, "renaming": 1}
        report = "\n".join(render_report(cached))
        assert "-- solution cache --" in report
        assert "hits / misses:     2 / 0" in report
        assert "hits proved by:    SAT 1 / renaming 1" in report


class TestElastic:
    def test_second_worker_pass_hits_everything(self, tmp_path):
        instances = suite()
        cache_path = str(tmp_path / "cache.jsonl")
        first = run_elastic_worker(
            instances, ["manthan3"], str(tmp_path / "camp1.jsonl"),
            worker_id="w1", timeout=60.0, seed=7,
            solution_cache=cache_path)
        assert first["complete"]
        assert first["cache_hits"] == 0
        second = run_elastic_worker(
            instances, ["manthan3"], str(tmp_path / "camp2.jsonl"),
            worker_id="w1", timeout=60.0, seed=7,
            solution_cache=cache_path)
        assert second["complete"]
        assert second["cache_hits"] == len(instances)
        assert sorted((r.engine, r.instance, r.status, r.certified)
                      for r in first["table"].records) \
            == sorted((r.engine, r.instance, r.status, r.certified)
                      for r in second["table"].records)
        # hit records still carry worker + lease attribution
        for record in second["table"].records:
            assert record.stats["worker"]["id"] == "w1"
            assert record.stats["cache"]["hit"] is True

    def test_uncached_elastic_has_no_cache_keys(self, tmp_path):
        summary = run_elastic_worker(
            suite(1), ["manthan3"], str(tmp_path / "camp.jsonl"),
            worker_id="w1", timeout=60.0, seed=7)
        assert summary["cache_hits"] == 0
        for record in summary["table"].records:
            assert "cache" not in record.stats


class TestCli:
    def _write(self, tmp_path, instance, name="inst.dqdimacs"):
        from repro.parsing import write_dqdimacs

        path = tmp_path / name
        path.write_text(write_dqdimacs(instance))
        return str(path)

    def test_synth_hits_on_second_invocation(self, tmp_path, capsys):
        from repro.cli.main import main

        inst_path = self._write(tmp_path, planted())
        cache = str(tmp_path / "cache.jsonl")
        args = ["synth", inst_path, "--engine", "manthan3", "--seed",
                "7", "--timeout", "60", "--solution-cache", cache]
        assert main(list(args)) == 10
        assert "[cache hit]" not in capsys.readouterr().err
        assert main(list(args)) == 10
        assert "[cache hit]" in capsys.readouterr().err

    def test_no_cache_wins_over_solution_cache(self, tmp_path, capsys):
        from repro.cli.main import main

        inst_path = self._write(tmp_path, planted())
        cache = str(tmp_path / "cache.jsonl")
        args = ["synth", inst_path, "--engine", "manthan3", "--seed",
                "7", "--timeout", "60", "--solution-cache", cache,
                "--no-cache"]
        assert main(list(args)) == 10
        assert main(list(args)) == 10
        assert "[cache hit]" not in capsys.readouterr().err

    def test_run_suite_second_pass_all_hits(self, tmp_path, capsys):
        from repro.cli.main import main
        from repro.portfolio import CampaignStore

        cache = str(tmp_path / "cache.jsonl")
        args = ["run-suite", "--suite", "smoke", "--limit", "2",
                "--engines", "manthan3", "--timeout", "60", "--seed",
                "0", "--solution-cache", cache]
        out1 = str(tmp_path / "pass1.jsonl")
        out2 = str(tmp_path / "pass2.jsonl")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        first = CampaignStore(out1).load()
        second = CampaignStore(out2).load()
        assert all(r.stats["cache"]["hit"] is True
                   for r in second.records)
        assert sorted((r.engine, r.instance, r.status, r.certified)
                      for r in first.records) \
            == sorted((r.engine, r.instance, r.status, r.certified)
                      for r in second.records)
