"""Chaos layer, consumer level: failover through the fallback chain.

Seeded fault plans (via ``REPRO_FAULT_PLAN``) strike the matrix
session, the E-check, the sampler, and the whole engine; the consumers
must rebuild on the configured fallback chain, replay their live state
(the E-check has none: it reruns on a new solver), and — the
acceptance property — end up **exactly** where a fault-free run ends
up.  A fault fires *before* the inner solver consumes any randomness
and the failover carries the solver RNG across the rebuild, so a
recovered trajectory is bit-identical to the undisturbed one.
"""

import pytest

from repro.core import Manthan3, Manthan3Config, Status, SynthesisContext
from repro.core.preprocess import detect_unates
from repro.core.sessions import MatrixSession, build_sessions
from repro.core.verifier import build_verification_cnf, e_check
from repro.dqbf import check_henkin_vector
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.sampling import Sampler
from repro.sat.backend import BackendUnavailableError
from repro.sat.faults import PLAN_ENV
from repro.sat.solver import SAT, UNSAT, Solver


def make(universals, deps, clauses):
    return DQBFInstance(universals, deps, CNF(clauses))


def _vector(result):
    return {y: f.to_infix()
            for y, f in (result.functions or {}).items()}


def e_context(inst, backend="faulty:python", fallbacks=("python",)):
    """A context whose E-checks run on ``backend`` with ``fallbacks``."""
    ctx = SynthesisContext(inst, Manthan3Config(
        seed=1, sat_backend=backend, sat_backend_fallbacks=fallbacks))
    build_sessions(ctx)
    return ctx


class TestECheckFailover:
    """Each E-check builds a fresh solver; a failure moves the run along
    the fallback chain for good and reruns the whole check."""

    def test_verdicts_survive_a_dead_backend(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve@1=unavailable")
        inst = make([1], {2: [1]}, [[-2, 1], [2, -1]])
        ctx = e_context(inst)
        for candidate, verdict in ((bf.var(1), UNSAT),
                                   (bf.not_(bf.var(1)), SAT),
                                   (bf.var(1), UNSAT)):
            reference = Solver(build_verification_cnf(
                inst, {2: candidate})).solve()
            status, _ = e_check(ctx, {2: candidate})
            assert status == reference == verdict
        assert ctx.verifier_stats["failovers"] == 1
        assert ctx.verifier_stats["calls"] == 3
        assert ctx.verifier_backends == ["python"]

    def test_memory_fault_also_fails_over(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve@1=memory")
        inst = make([1], {2: [1]}, [[-2, 1], [2, -1]])
        ctx = e_context(inst)
        assert e_check(ctx, {2: bf.var(1)})[0] == UNSAT
        assert ctx.verifier_stats["failovers"] == 1

    def test_exhausted_chain_reraises(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve@1=unavailable")
        inst = make([1], {2: [1]}, [[-2, 1], [2, -1]])
        ctx = e_context(inst, fallbacks=())
        with pytest.raises(BackendUnavailableError):
            e_check(ctx, {2: bf.var(1)})

    def test_next_check_starts_on_the_fallback(self, monkeypatch):
        """Every fresh ``faulty:python`` solver would fault at its first
        query, so only a run that stays on the fallback after the first
        failover gets through later checks without another one."""
        monkeypatch.setenv(PLAN_ENV, "solve@1=unavailable")
        inst = make([1], {2: [1]}, [[-2, 1], [2, -1]])
        ctx = e_context(inst)
        assert e_check(ctx, {2: bf.var(1)})[0] == UNSAT
        assert ctx.verifier_stats["failovers"] == 1
        solves = count_solves(monkeypatch)
        for _ in range(3):
            assert e_check(ctx, {2: bf.var(1)})[0] == UNSAT
        assert ctx.verifier_stats["failovers"] == 1
        assert ctx.verifier_stats["calls"] == 4
        # Two clause queries per check, none lost to a fault.
        assert solves == [3 * 2]

    @pytest.mark.parametrize("candidate3, status, queries", [
        (bf.not_(bf.var(1)), UNSAT, 4),
        (bf.var(1), SAT, 3)])
    def test_fault_inside_clause_loop_reruns_whole_check(
            self, candidate3, status, queries, monkeypatch):
        """The E-check is one query per matrix clause.  A fault at the
        third query fails over, and a new solver on the fallback runs
        the queries again from the first clause, ending where a
        fault-free check ends."""
        # y2 ↔ x1, y3 ↔ ¬x1: with y3 = x1 the third clause is false.
        inst = make([1], {2: [1], 3: [1]},
                    [[-2, 1], [2, -1], [-3, -1], [3, 1]])
        candidates = {2: bf.var(1), 3: candidate3}
        monkeypatch.delenv(PLAN_ENV, raising=False)
        clean_status, clean_model = e_check(
            e_context(inst, backend="python"), candidates)
        assert clean_status == status
        solves = count_solves(monkeypatch)
        monkeypatch.setenv(PLAN_ENV, "solve@3=unavailable")
        ctx = e_context(inst)
        assert e_check(ctx, candidates) == (status, clean_model)
        assert ctx.verifier_stats["failovers"] == 1
        assert ctx.verifier_stats["calls"] == 1
        # Two queries before the fault, then the loop again from the top.
        assert solves == [2 + queries]


def count_solves(monkeypatch):
    """Count reference-solver ``solve`` calls from here on; returns a
    one-element list holding the running count."""
    count = [0]
    real = Solver.solve

    def counting(self, *args, **kwargs):
        count[0] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "solve", counting)
    return count


class TestMatrixSessionFailover:
    UNATE_CASES = [
        make([1], {2: [1]}, [[1, 2]]),
        make([1], {2: [1]}, [[1, -2]]),
        make([1], {2: [1]}, [[-2, 1], [2, -1]]),
        make([1], {2: [1], 3: [1]}, [[1, 2], [2, -3], [3, 1]]),
    ]

    @pytest.mark.parametrize("inst", UNATE_CASES)
    def test_unate_detection_survives_faults(self, inst, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve@1=unavailable")
        session = MatrixSession(inst.matrix, backend="faulty:python",
                                fallbacks=["python"])
        assert detect_unates(inst, matrix_session=session) \
            == detect_unates(inst)
        if inst is self.UNATE_CASES[0]:
            # ϕ = (x1 ∨ y2): no clause holds ¬y2, so y2 is positive
            # unate without a single solver query, and nothing faults.
            assert session.solver.calls.get("solve", 0) == 0
            assert session.failovers == 0
        else:
            assert session.failovers >= 1
        assert session.stats()["failovers"] == session.failovers

    def test_fault_inside_multi_clause_unate_check(self, monkeypatch):
        """The positive check of y2 is three queries, one per clause
        holding ¬y2; the third faults.  The session fails over and the
        rebuilt solver reruns all three before the negative check."""
        # ϕ = (y2 ∨ x1)(¬y2 ∨ x1)(y2 ∨ x3)(¬y2 ∨ x3)(¬y2 ∨ x4): y2 is
        # negative unate, not positive (x4 = 0 needs y2 = 0).
        inst = make([1, 3, 4], {2: [1, 3, 4]},
                    [[2, 1], [-2, 1], [2, 3], [-2, 3], [-2, 4]])
        monkeypatch.delenv(PLAN_ENV, raising=False)
        reference = detect_unates(inst)
        assert reference == {2: bf.FALSE}
        queries = count_solves(monkeypatch)
        monkeypatch.setenv(PLAN_ENV, "solve@3=unavailable")
        session = MatrixSession(inst.matrix, backend="faulty:python",
                                fallbacks=["python"])
        assert detect_unates(inst, matrix_session=session) == reference
        assert session.failovers == 1
        # Two checks, each counted once; the positive check ran twice
        # (2 + 3 queries), the negative check once (2 queries).
        assert session.stats()["calls_unate"] == 2
        assert queries == [2 + 3 + 2]

    def test_units_are_replayed_across_rebuild(self, monkeypatch):
        # The matrix CNF costs one add_clause at install time; the unit
        # is the second add_clause call and triggers the fault.
        monkeypatch.setenv(PLAN_ENV, "add_clause@2=unavailable")
        session = MatrixSession(CNF([[1, 2]]), backend="faulty:python",
                                fallbacks=["python"])
        session.add_unit(-1)
        assert session.failovers == 1
        # The rebuilt solver has both the matrix and the unit.
        assert session.solve([]) == SAT
        assert session.model[1] is False
        assert session.model[2] is True
        assert session.solve([-2]) == UNSAT

    def test_solve_retries_after_failover(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve@1=memory")
        session = MatrixSession(CNF([[1, 2]]), backend="faulty:python",
                                fallbacks=["python"])
        assert session.solve([-1]) == SAT
        assert session.model[2] is True
        assert session.failovers == 1


class TestSamplerFailover:
    CNF_2SAT = [[1, 2], [-1, 2]]          # forces var 2 True

    def _sampler(self, backend, fallbacks=()):
        return Sampler(CNF(self.CNF_2SAT), rng=3, weighted_vars=[1, 2],
                       backend=backend, fallbacks=fallbacks)

    def test_incremental_failover_replays_fault_free_stream(
            self, monkeypatch):
        monkeypatch.delenv(PLAN_ENV, raising=False)
        reference = self._sampler("python").draw(6)
        monkeypatch.setenv(PLAN_ENV, "solve@1=unavailable")
        sampler = self._sampler("faulty:python", fallbacks=["python"])
        models = sampler.draw(6)
        assert models == reference
        assert sampler.failovers == 1
        stats = sampler.stats()
        assert stats["backend"] == "python"
        assert stats["failovers"] == 1
        assert stats["calls"] == 6      # draws, not attempts

    def test_non_capable_chain_entries_are_skipped(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve@1=unavailable")
        sampler = self._sampler("faulty:python",
                                fallbacks=["pysat", "python"])
        models = sampler.draw(3)
        assert len(models) == 3 and all(m[2] for m in models)
        assert sampler.failovers == 1
        assert sampler.stats()["backend"] == "python"

    def test_exhausted_chain_reraises(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve@1=unavailable")
        sampler = self._sampler("faulty:python", fallbacks=[])
        with pytest.raises(BackendUnavailableError):
            sampler.draw(3)


class TestEngineResilienceEquivalence:
    """The tentpole acceptance property, stated at engine level: a run
    whose oracles all die once and fail over ends with the *same*
    status and the *same* function vector as the undisturbed run."""

    @pytest.fixture()
    def instance(self):
        from repro.benchgen import generate_planted_instance

        return generate_planted_instance(
            num_universals=14, num_existentials=3, dep_width=12,
            region_width=3, rules_per_y=4, seed=21)

    def _run(self, instance, **overrides):
        config = Manthan3Config(seed=9, **overrides)
        return Manthan3(config).run(instance, timeout=60)

    def test_recovered_run_matches_fault_free(self, instance,
                                              monkeypatch):
        monkeypatch.delenv(PLAN_ENV, raising=False)
        clean = self._run(instance)
        monkeypatch.setenv(PLAN_ENV, "solve@1=unavailable")
        recovered = self._run(instance, sat_backend="faulty:python",
                              sat_backend_fallbacks=["python"])
        assert recovered.status == clean.status
        assert _vector(recovered) == _vector(clean)
        assert recovered.stats["oracle"]["failovers"] >= 1
        assert clean.stats["oracle"]["failovers"] == 0

    @pytest.mark.parametrize("plan", ["new_group@1=unavailable",
                                      "release_group@1=memory"])
    def test_failover_inside_findcandi(self, plan, monkeypatch):
        """Only ``FindCandi`` opens and releases clause groups on the
        matrix session, so these plans kill its backend at the start or
        at the end of the first ``FindCandi`` call.  The session fails
        over and runs the whole call again."""
        from repro.benchgen import generate_planted_instance

        # Unlike the fixture's instance, this one needs repair rounds.
        instance = generate_planted_instance(
            num_universals=14, num_existentials=3, dep_width=12,
            region_width=3, rules_per_y=4, seed=11)
        monkeypatch.delenv(PLAN_ENV, raising=False)
        clean = self._run(instance)
        monkeypatch.setenv(PLAN_ENV, plan)
        recovered = self._run(instance, sat_backend="faulty:python",
                              sat_backend_fallbacks=["python"])
        matrix = recovered.stats["oracle"]["matrix"]
        assert matrix["failovers"] >= 1
        # The faulted call ran twice but counts once, as a check.
        assert matrix["calls_maxsat"] == \
            clean.stats["oracle"]["matrix"]["calls_maxsat"] >= 1
        assert recovered.stats["oracle"]["failovers"] >= 1
        assert recovered.status == clean.status == Status.SYNTHESIZED
        assert check_henkin_vector(instance, recovered.functions).valid

    def test_seeded_chaos_runs_are_deterministic_and_sound(
            self, instance, monkeypatch):
        monkeypatch.setenv(
            PLAN_ENV,
            "seed=5,rate=0.3,methods=solve,kinds=unavailable|memory")
        first = self._run(instance, sat_backend="faulty:python",
                          sat_backend_fallbacks=["python"])
        second = self._run(instance, sat_backend="faulty:python",
                           sat_backend_fallbacks=["python"])
        assert first.status == second.status
        assert _vector(first) == _vector(second)
        assert first.stats["oracle"]["failovers"] \
            == second.stats["oracle"]["failovers"] >= 1
        for result in (first, second):
            if result.status == Status.SYNTHESIZED:
                assert check_henkin_vector(instance,
                                           result.functions).valid
