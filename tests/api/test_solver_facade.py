"""Solver façade: trajectory equivalence with the pre-redesign entry
points (acceptance contract), batch semantics, and handle reuse."""

import pytest

from repro.api import BatchResult, Problem, Solver, solve, solve_batch
from repro.benchgen import (
    generate_controller_instance,
    generate_pec_instance,
    generate_planted_instance,
)
from repro.core import Manthan3, Manthan3Config
from repro.portfolio import make_engine, run_campaign
from repro.portfolio.parallel import derive_job_seed
from repro.utils.errors import ReproError


def _suite():
    """Planted suite plus controller/pec spot checks (same shapes the
    pipeline-refactor equivalence tests pinned)."""
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


def _signature(functions):
    if functions is None:
        return None
    return {y: f.to_infix() for y, f in sorted(functions.items())}


class TestSolveEquivalence:
    """``Solver.solve`` ≡ the pre-redesign ``synthesize`` path: same
    statuses AND same functions, engine level."""

    def test_engine_level(self):
        for inst in _suite():
            old = Manthan3(Manthan3Config(seed=9)).run(inst, timeout=60)
            new = Solver("manthan3", seed=9).solve(inst, timeout=60)
            assert new.status == old.status, inst.name
            assert _signature(new.functions) \
                == _signature(old.functions), inst.name

    def test_registry_engine_equivalence(self):
        # pec: small enough for the expansion baseline too.
        inst = _suite()[4]
        for name in ("manthan3-emulated", "manthan3-nopre", "expansion"):
            old = make_engine(name, 7).run(inst, timeout=60)
            new = Solver(name, seed=7).solve(inst, timeout=60)
            assert new.status == old.status, name
            assert _signature(new.functions) \
                == _signature(old.functions), name

    def test_custom_phase_list_matches_registry_ablation(self):
        inst = _suite()[0]
        custom = Solver("manthan3", seed=7,
                        phases=("unit_fastpath", "sample", "learn",
                                "order", "verify_repair"))
        ablation = Solver("manthan3-nopre", seed=7)
        a = custom.solve(inst, timeout=60)
        b = ablation.solve(inst, timeout=60)
        assert a.status == b.status
        assert _signature(a.functions) == _signature(b.functions)

    def test_config_and_overrides_routes(self):
        inst = _suite()[0]
        via_config = Solver("manthan3",
                            config=Manthan3Config(
                                seed=7, use_self_substitution=False))
        via_overrides = Solver("manthan3", seed=7,
                               overrides={"use_self_substitution": False})
        a = via_config.solve(inst, timeout=60)
        b = via_overrides.solve(inst, timeout=60)
        assert a.status == b.status
        assert _signature(a.functions) == _signature(b.functions)


class TestBatchEquivalence:
    """``solve_batch`` ≡ the pre-redesign ``run_campaign`` path, at
    campaign level: same statuses, certification verdicts, AND
    functions for every (engine, instance) record."""

    def test_campaign_level(self):
        # Two pipeline engines: the baselines either blow up (expansion)
        # or time out (pedant) on the planted family.
        instances = _suite()
        engines = ["manthan3", "manthan3-emulated"]
        old = run_campaign(instances, engines, timeout=60, seed=3)
        batch = solve_batch(instances, engines, timeout=60, seed=3)
        for inst in instances:
            for engine in engines:
                old_rec = old.record_for(engine, inst.name)
                new_rec = batch.table.record_for(engine, inst.name)
                assert new_rec.status == old_rec.status, \
                    (engine, inst.name)
                assert new_rec.certified == old_rec.certified
                # Functions: the façade record carries them; compare
                # against a direct per-job-seeded engine rerun.
                if new_rec.status == "SYNTHESIZED":
                    rerun = make_engine(
                        engine,
                        derive_job_seed(3, engine, inst.name)).run(
                            inst, timeout=60)
                    assert _signature(new_rec.result.functions) \
                        == _signature(rerun.functions)

    def test_jobs_equivalence_through_the_facade(self):
        problems = _suite()[:3]
        solver = Solver("manthan3")
        serial = solver.solve_batch(problems, timeout=60, jobs=1, seed=5)
        pooled = solver.solve_batch(problems, timeout=60, jobs=2, seed=5)
        for a, b in zip(serial.solutions, pooled.solutions):
            assert a.status == b.status
            assert a.certified == b.certified
            assert _signature(a.functions) == _signature(b.functions)


class TestBatchResult:
    def test_solution_access(self):
        problems = _suite()[3:]  # controller + pec: expansion-friendly
        solvers = [Solver("manthan3"), Solver("expansion")]
        batch = solve_batch(problems, solvers, timeout=60, seed=0)
        assert isinstance(batch, BatchResult)
        by_name = batch.solution_for(problems[0].name, solver="expansion")
        assert by_name.engine == "expansion"
        with pytest.raises(ReproError, match="use solution_for"):
            batch.solutions  # ambiguous with two solvers
        single = Solver("manthan3").solve_batch(problems, timeout=60,
                                                seed=0)
        assert [s.problem.name for s in single.solutions] \
            == [p.name for p in problems]
        assert all(s.functions for s in single.solutions
                   if s.synthesized)

    def test_store_roundtrip_and_resume(self, tmp_path):
        problems = _suite()[:2]
        store = str(tmp_path / "campaign.jsonl")
        solver = Solver("manthan3")
        first = solver.solve_batch(problems, timeout=60, seed=0,
                                   store=store)
        executed = []
        again = solver.solve_batch(problems, timeout=60, seed=0,
                                   store=store, resume=True,
                                   progress=executed.append)
        assert executed == []  # everything resumed
        for a, b in zip(first.solutions, again.solutions):
            assert a.status == b.status
            # Resumed records do not persist expressions.
            assert b.functions is None

    def test_duplicate_names_rejected(self):
        problems = [_suite()[0], _suite()[0]]
        with pytest.raises(ReproError, match="unique names"):
            Solver("manthan3").solve_batch(problems, timeout=5)
        with pytest.raises(ReproError, match="unique names"):
            solve_batch([_suite()[0]],
                        [Solver("manthan3"), Solver("manthan3")],
                        timeout=5)

    def test_default_named_duplicates_rejected(self):
        # Instances parsed without a name all default to "dqbf" — batch
        # records are keyed by name, so this must be a loud error.
        text = "p cnf 2 1\na 1 0\nd 2 1 0\n1 2 0\n"
        with pytest.raises(ReproError, match="unique names"):
            Solver("expansion").solve_batch([text, text], timeout=10)


class TestSolverHandle:
    def test_unknown_engine(self):
        with pytest.raises(ReproError, match="unknown engine"):
            Solver("manthan4")

    def test_customizing_a_baseline_is_rejected(self):
        with pytest.raises(ReproError, match="not a pipeline engine"):
            Solver("expansion", overrides={"use_self_substitution": False})

    def test_config_excludes_seed_and_overrides(self):
        with pytest.raises(ReproError, match="not both"):
            Solver("manthan3", seed=1, config=Manthan3Config())

    def test_wraps_engine_objects(self):
        engine = Manthan3(Manthan3Config(seed=2))
        solver = Solver(engine, name="mine")
        assert solver.name == "mine"
        assert solver.engine is engine

    def test_seed_on_engine_objects_is_rejected(self):
        # Silently ignoring it would defeat the requested determinism.
        engine = Manthan3(Manthan3Config(seed=2))
        with pytest.raises(ReproError, match="named by spec"):
            Solver(engine, seed=42)

    def test_solve_accepts_text_and_paths(self, tmp_path):
        text = "p cnf 3 2\na 1 0\nd 2 1 0\nd 3 1 0\n1 2 0\n-2 3 0\n"
        solver = Solver("manthan3", seed=0)
        from_text = solver.solve(text, timeout=30)
        assert from_text.synthesized
        path = tmp_path / "inst.dqdimacs"
        path.write_text(text)
        from_path = solver.solve(str(path), timeout=30)
        assert from_path.synthesized
        assert from_path.problem.name == "inst.dqdimacs"

    def test_module_level_solve(self):
        solution = solve(_suite()[0], engine="manthan3", seed=9,
                         timeout=60)
        assert solution.synthesized
        assert isinstance(solution.problem, Problem)

    def test_portfolio_entry_selection(self):
        assert Solver("manthan3")._portfolio_entry() == "manthan3"
        seeded = Solver("manthan3", seed=1)
        assert seeded._portfolio_entry() is seeded.engine
        custom = Solver("manthan3",
                        overrides={"use_self_substitution": False})
        assert custom._portfolio_entry() is custom.engine
        # A renamed solver must ship the engine object: its display
        # name is not in the registry.
        renamed = Solver("manthan3", name="mine")
        assert renamed._portfolio_entry() is renamed.engine

    def test_renamed_solvers_batch_under_their_display_name(self):
        # The remedy the duplicate-name error suggests must work.
        problems = _suite()[:1]
        batch = solve_batch(
            problems,
            [Solver("manthan3", name="m-a"),
             Solver("manthan3", name="m-b")],
            timeout=60, seed=0)
        for label in ("m-a", "m-b"):
            assert batch.solution_for(problems[0],
                                      solver=label).synthesized

    def test_solution_for_unknown_name_message(self):
        batch = Solver("manthan3").solve_batch(_suite()[:1], timeout=60,
                                               seed=0)
        with pytest.raises(ReproError, match="typo-name"):
            batch.solution_for("typo-name")
