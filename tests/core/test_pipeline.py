"""Tests for the staged pipeline: the pinned trajectory, the
verify–repair stop conditions, the run deadline, anytime partial
results, and the declarative engine specs.

The trajectory pin is the pipeline's acceptance contract: the staged
pipeline must reproduce the statuses AND functions folded into
``trajectory.ENGINE_SHA256`` / ``FALSE_SHA256`` exactly (same RNG spawn
sequence, same oracle calls), across the planted/controller/pec
families, at engine and campaign level.  The first constants were
recorded from both the staged pipeline and the pre-pipeline monolith it
replaced, which agreed on them; changes meant to alter the trajectory
re-baseline them deliberately.
"""

import pytest

from repro.benchgen import build_suite, generate_planted_instance
from repro.core import (
    DEFAULT_PHASE_NAMES,
    Manthan3,
    Manthan3Config,
    Pipeline,
    Status,
    SynthesisContext,
    synthesize,
)
from repro.core.events import CounterexampleFound
from repro.core.pipeline import PHASES
from repro.core.repair import evaluate_vector
from repro.core.sessions import build_sessions
from repro.dqbf import check_henkin_vector
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.portfolio import resolve_engine_spec, run_campaign
from repro.portfolio.parallel import derive_job_seed
from repro.utils.errors import ReproError, ResourceBudgetExceeded
from repro.utils.timer import Deadline
from trajectory import (
    ENGINE_SHA256,
    FALSE_SHA256,
    engine_cases,
    false_cases,
    fold,
    pipeline_suite,
    run_cases,
)


def make(universals, deps, clauses):
    return DQBFInstance(universals, deps, CNF(clauses))


class FlipDeadline:
    """A run deadline that expires when the test says so."""

    def __init__(self):
        self.tripped = False

    def expired(self):
        return self.tripped

    def check(self):
        if self.tripped:
            raise ResourceBudgetExceeded("stub deadline")


def run_tripping_at(inst, config, phase):
    """Run the default pipeline on a deadline that expires as ``phase``
    starts; returns ``(result, ctx)``."""
    deadline = FlipDeadline()

    def trip(event):
        if event.kind == "phase_started" and event.phase == phase:
            deadline.tripped = True

    ctx = SynthesisContext(inst, config, deadline=deadline,
                           listeners=[trip])
    return Pipeline().execute(ctx), ctx


class TestTrajectoryEquivalence:
    """Staged pipeline ≡ the pinned trajectory: statuses AND functions."""

    def test_engine_level(self):
        assert fold(run_cases(engine_cases())) == ENGINE_SHA256

    def test_campaign_level(self):
        """Campaign over the suite matches per-job-seeded solo runs
        record for record."""
        suite = pipeline_suite()
        table = run_campaign(suite, ["manthan3"], timeout=60, seed=3)
        assert len(table.records) == len(suite)
        for record in table.records:
            config = Manthan3Config(
                seed=derive_job_seed(3, record.engine, record.instance))
            inst = next(i for i in suite if i.name == record.instance)
            solo = Manthan3(config).run(inst, timeout=60)
            assert record.status == solo.status, \
                (record.engine, record.instance)
            assert record.certified is not False, record.instance

    def test_false_verdicts_match(self):
        runs = run_cases(false_cases())
        assert [r.status for _, r in runs] == [Status.FALSE] * 3
        assert fold(runs) == FALSE_SHA256


def _small(name):
    return next(i for i in build_suite("small", 0) if i.name == name)


class TestRepairStopConditions:
    """The verify–repair loop's UNKNOWN exits: cycle and stagnation."""

    def test_recurring_counterexample_stops_the_loop(self):
        """This run oscillates between a few counterexamples; without
        the cycle exit it spends all 400 iterations and ends with
        "repair iteration budget exhausted"."""
        events = []
        result = Manthan3(Manthan3Config(seed=5)).run(
            _small("ctrl_s5_w2_u3_obs_s7"), listeners=[events.append])
        assert result.status == Status.UNKNOWN
        assert result.reason == \
            "repair cycled: a repaired counterexample recurred"
        assert 0 < result.stats["repair_iterations"] <= 5
        cexes = [e for e in events if isinstance(e, CounterexampleFound)]
        assert len(cexes) == result.stats["repair_iterations"]

    def test_stagnation_exit_unchanged(self):
        """Rounds that modify nothing do not arm the cycle check."""
        result = Manthan3(Manthan3Config(seed=5)).run(
            _small("pec_n7_o3_b2_d3_unsat_s3"))
        assert result.status == Status.UNKNOWN
        assert result.reason == \
            "repair stagnated (incompleteness, paper §5)"
        assert result.stats["repair_iterations"] == 3

    @pytest.mark.parametrize("name", [
        "ctrl_s5_w2_u3_obs_s7", "ctrl_s4_w2_u2_obs_s6",
        "planted_x22_y4_w19_r10_s14", "coupled_x10_w8_p2_s42"])
    def test_counterexample_outputs_are_candidate_outputs(
            self, monkeypatch, name):
        """The cycle key's δ[Y′] is a function of σ[X] and the current
        candidates: the verifier's ``sigma_yp`` equals the scalar
        evaluation of the candidate vector on ``sigma_x``."""
        import repro.core.pipeline as pl

        real_run_verify = pl.run_verify
        checked = []

        def verify_and_check(ctx):
            outcome = real_run_verify(ctx)
            if outcome.verdict == "COUNTEREXAMPLE":
                assert outcome.sigma_yp == evaluate_vector(
                    ctx.candidates, ctx.order, outcome.sigma_x)
                checked.append(ctx.iteration)
            return outcome

        monkeypatch.setattr(pl, "run_verify", verify_and_check)
        result = Manthan3(Manthan3Config(seed=5)).run(_small(name))
        assert checked
        assert len(checked) >= result.stats["repair_iterations"]


class TestAnytimePartials:
    """TIMEOUT/UNKNOWN results carry stats and best-so-far candidates."""

    def _instance(self):
        return generate_planted_instance(
            num_universals=16, num_existentials=3, dep_width=14,
            region_width=3, rules_per_y=5, seed=11)

    def test_timeout_mid_loop_keeps_stats(self):
        """A run whose deadline expires in the verify–repair loop still
        reports samples and oracle counters (plus the phase timings and
        partials), not just wall_time."""
        result, _ = run_tripping_at(self._instance(),
                                    Manthan3Config(seed=9), "verify_repair")
        assert result.status == Status.TIMEOUT
        assert result.stats["samples"] > 0
        assert "oracle" in result.stats
        assert "phases" in result.stats
        assert result.partial_functions is not None
        assert set(result.partial_functions) == \
            set(self._instance().existentials)
        assert result.stats["partial"]["functions"] == \
            len(result.partial_functions)

    def test_global_timeout_keeps_stats(self):
        result = synthesize(self._instance(), timeout=0.0)
        assert result.status == Status.TIMEOUT
        assert "samples" in result.stats
        assert "oracle" in result.stats
        assert "phases" in result.stats
        assert result.stats["wall_time"] >= 0.0

    def test_unknown_carries_partials(self):
        """An exhausted repair budget returns the (uncertified) current
        vector as a partial."""
        inst = make([1, 2], {3: [1, 2]},
                    [[-3, 1, 2], [3, -1], [3, -2]])        # y ↔ (x1 ∨ x2)
        config = Manthan3Config(seed=1, max_repair_iterations=0,
                                use_unate_detection=False,
                                use_unique_extraction=False,
                                num_samples=1)
        ctx = SynthesisContext(inst, config, deadline=Deadline(None))
        ctx.samples = []
        ctx.fixed = {}
        ctx.candidates = {3: bf.FALSE}   # wrong on purpose
        from repro.core.candidates import DependencyTracker

        ctx.tracker = DependencyTracker(inst.existentials)
        ctx.order = [3]
        result = Pipeline(("verify_repair",)).execute(ctx)
        assert result.status == Status.UNKNOWN
        assert result.reason == "repair iteration budget exhausted"
        assert result.partial_functions == {3: bf.FALSE}
        assert result.partial_verified == 0

    def test_partial_verified_counts_final_outputs(self):
        """Preprocessing-fixed outputs count as verified partials."""
        # y2 is positive unate ((x1 ∨ y2)); y3 must be learned.
        inst = make([1], {2: [1], 3: [1]},
                    [[1, 2], [-3, 1], [3, -1]])
        result, _ = run_tripping_at(inst, Manthan3Config(seed=5),
                                    "verify_repair")
        assert result.status == Status.TIMEOUT
        assert result.partial_functions is not None
        assert result.partial_verified >= 1
        assert result.partial_functions[2] is bf.TRUE


class TestPhaseBudgets:
    """The run's one deadline, as each phase meets it."""

    @pytest.mark.parametrize("phase", ["sample", "preprocess", "learn",
                                       "order", "verify_repair"])
    def test_deadline_expiring_as_phase_starts(self, phase):
        """Whichever phase the deadline expires in, the run ends TIMEOUT
        right there, and whatever the phases before it built comes back
        as a partial.  Preprocessing fixes three of this instance's four
        outputs, so the partial grows from nothing (sample, preprocess)
        to the fixed outputs (learn) to the whole vector."""
        result, ctx = run_tripping_at(_small("pec_n5_o2_b1_d2_sat_s22"),
                                      Manthan3Config(seed=9), phase)
        assert result.status == Status.TIMEOUT
        names = list(DEFAULT_PHASE_NAMES)
        assert list(result.stats["phases"]) == \
            names[:names.index(phase) + 1]
        if ctx.candidates or ctx.fixed:
            assert result.partial_functions
        else:
            assert result.partial_functions is None

    def test_preprocess_truncation_keeps_partial_fixed(self):
        """A budget striking mid-unate-pass must not discard the
        outputs already fixed, and the dual rail must still retire."""
        from repro.core.preprocess import run_preprocess

        class OneUnateThenBudget:
            def __init__(self):
                self.calls = 0
                self.retired = False

            def unate_check(self, y, value, deadline=None):
                self.calls += 1
                if self.calls == 1:
                    return True
                raise ResourceBudgetExceeded("stub budget")

            def add_unit(self, literal):
                pass

            def retire_dual(self):
                self.retired = True

        inst = make([1], {2: [1], 3: [1]}, [[1, 2], [1, 3]])
        config = Manthan3Config(seed=1, use_unique_extraction=False)
        ctx = SynthesisContext(inst, config)
        ctx.matrix_session = stub = OneUnateThenBudget()
        with pytest.raises(ResourceBudgetExceeded):
            run_preprocess(ctx)
        assert ctx.fixed == {2: bf.TRUE}
        assert ctx.stats["fixed_unates"] == 1
        assert stub.retired

    def test_repair_iterations_reported_on_mid_loop_timeout(self,
                                                           monkeypatch):
        """A budget striking mid-verify-repair reports how far repair
        got, not the initial 0."""
        import repro.core.pipeline as pl
        from repro.core.candidates import DependencyTracker

        inst = make([1, 2], {3: [1, 2]},
                    [[-3, 1, 2], [3, -1], [3, -2]])        # y ↔ (x1 ∨ x2)
        config = Manthan3Config(seed=3, use_self_substitution=False)
        deadline = FlipDeadline()
        ctx = SynthesisContext(inst, config, deadline=deadline)
        build_sessions(ctx)
        ctx.candidates = {3: bf.FALSE}
        ctx.tracker = DependencyTracker(inst.existentials)
        ctx.order = [3]

        real_run_repair = pl.run_repair

        def repair_then_trip(ctx, sigma_x):
            modified = real_run_repair(ctx, sigma_x)
            deadline.tripped = True
            return modified

        monkeypatch.setattr(pl, "run_repair", repair_then_trip)
        result = Pipeline(("verify_repair",)).execute(ctx)
        assert result.status == Status.TIMEOUT
        assert result.stats["repair_iterations"] == 1
        assert result.partial_functions is not None

    def test_phase_timings_cover_phase_list(self):
        inst = generate_planted_instance(
            num_universals=14, num_existentials=3, dep_width=12,
            region_width=3, rules_per_y=4, seed=23)
        result = Manthan3(Manthan3Config(seed=9)).run(inst, timeout=60)
        assert result.status == Status.SYNTHESIZED
        # Every phase up to the verdict was timed.
        assert list(result.stats["phases"]) == list(DEFAULT_PHASE_NAMES)


class TestPipelineComposition:
    def test_unknown_phase_name_rejected(self):
        with pytest.raises(ReproError):
            Pipeline(("sample", "no_such_phase"))

    def test_registry_covers_default_list(self):
        assert set(DEFAULT_PHASE_NAMES) <= set(PHASES)

    def test_missing_prerequisite_rejected_when_built(self):
        from repro.portfolio import ENGINE_SPECS
        from repro.portfolio.parallel import PipelineEngineSpec

        for phases, missing in [
                (("unit_fastpath", "learn", "order", "verify_repair"),
                 "sample"),
                (("sample", "preprocess", "order", "verify_repair"),
                 "learn"),
                (("sample", "learn", "verify_repair"), "order"),
                (("sample", "learn", "verify_repair", "order"), "order")]:
            with pytest.raises(ReproError,
                               match="needs phase %r" % missing):
                Manthan3(phases=phases)
        # every registered pipeline engine passes the check
        names = [name for name, spec in ENGINE_SPECS.items()
                 if isinstance(spec, PipelineEngineSpec)]
        assert "manthan3-nopre" in names
        for name in names:
            assert resolve_engine_spec(name).build(0).pipeline.phases, name

    def test_engine_refuses_a_first_phase_with_a_prerequisite(self):
        """``Manthan3.run`` builds a fresh context, so unlike
        ``Pipeline.execute`` on a prepared one it has nothing for a
        first ``learn``/``order``/``verify_repair`` phase to read."""
        for phases, missing in [
                (("learn", "order", "verify_repair"), "sample"),
                (("order", "verify_repair"), "learn"),
                (("verify_repair",), "order")]:
            with pytest.raises(ReproError,
                               match="needs phase %r" % missing):
                Manthan3(phases=phases)
            # the bare pipeline still accepts it for a prepared context
            assert Pipeline(phases).phases[0].name == phases[0]

    def test_ablated_pipeline_synthesizes(self):
        """The preprocessing-free phase list still solves instances —
        preprocessing is an accelerator, not a soundness requirement."""
        inst = make([1, 2], {3: [1, 2]},
                    [[-3, 1], [-3, 2], [3, -1, -2]])       # y ↔ x1 ∧ x2
        engine = resolve_engine_spec("manthan3-nopre").build(4)
        result = engine.run(inst, timeout=30)
        assert result.status == Status.SYNTHESIZED
        assert check_henkin_vector(inst, result.functions).valid
        # No preprocessing phase ran: no fixed_* stats, no timing row.
        assert "fixed_unates" not in result.stats
        assert "preprocess" not in result.stats["phases"]


class TestEngineSpecs:
    def test_ablation_engines_are_data(self):
        from repro.portfolio import ENGINE_SPECS

        nopre = ENGINE_SPECS["manthan3-nopre"]
        assert nopre.phases == ("unit_fastpath", "sample", "learn",
                                "order", "verify_repair")
        noselfsub = ENGINE_SPECS["manthan3-noselfsub"]
        assert noselfsub.overrides == {"use_self_substitution": False}
        engine = resolve_engine_spec("manthan3-noselfsub").build(1)
        assert engine.config.use_self_substitution is False

    def test_campaign_with_ablation_engines(self):
        suite = [generate_planted_instance(
            num_universals=14, num_existentials=3, dep_width=12,
            region_width=3, rules_per_y=4, seed=50)]
        table = run_campaign(suite, ["manthan3", "manthan3-nopre",
                                     "manthan3-noselfsub"],
                             timeout=60, seed=2)
        assert len(table.records) == 3
        for record in table.records:
            assert record.certified is not False, record.engine
            # Workers shipped per-phase stats over IPC.
            assert "phases" in record.stats
