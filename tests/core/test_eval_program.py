"""The run's evaluation program (``repro.formula.bitvec.EvalProgram``):
bounded while the verify–repair loop runs, dropped when it ends."""

import gc
import weakref

from repro.benchgen import generate_planted_instance
from repro.core import pipeline, repair
from repro.core.config import Manthan3Config
from repro.core.context import SynthesisContext
from repro.core.pipeline import Pipeline
from repro.core.result import Status
from repro.utils.errors import ResourceBudgetExceeded


def hard_shape(seed):
    """A planted instance whose solve takes a few dozen repairs."""
    return generate_planted_instance(
        num_universals=16, num_existentials=4, dep_width=12,
        region_width=5, rules_per_y=10, seed=seed)


def compiled_roots(program):
    """``{y: root}`` for every output the program holds code for."""
    return {y: entry[0] for y, entry in program._roots.items()}


class ProgramSpy:
    """Watches every refresh: the programs used and the roots they
    held code for."""

    def __init__(self, monkeypatch):
        self.programs = []
        self.roots_seen = set()
        self.max_compiled = 0
        real_refresh = repair.refresh_vector_bits

        def refresh(program, *args):
            bits = real_refresh(program, *args)
            if program not in self.programs:
                self.programs.append(program)
            compiled = compiled_roots(program)
            self.max_compiled = max(self.max_compiled, len(compiled))
            self.roots_seen.update(compiled.values())
            return bits

        monkeypatch.setattr(repair, "refresh_vector_bits", refresh)


class TestProgramLifetime:
    def test_code_for_one_root_per_existential(self, monkeypatch):
        spy = ProgramSpy(monkeypatch)
        inst = hard_shape(200)
        ctx = SynthesisContext(inst, Manthan3Config(seed=0))
        result = Pipeline().execute(ctx)
        assert result.status == Status.SYNTHESIZED
        assert result.stats["repair_iterations"] >= 20
        # one program for the whole run
        assert len(spy.programs) == 1
        program = spy.programs[0]
        # many roots were compiled and superseded along the way ...
        assert len(spy.roots_seen) > 3 * len(inst.existentials)
        # ... but the program never held code for more than one root
        # per existential, and ends holding the final candidates.
        assert spy.max_compiled <= len(inst.existentials)
        compiled = compiled_roots(program)
        assert set(compiled) <= set(inst.existentials)
        for y, root in compiled.items():
            assert root is ctx.candidates[y]

    def test_context_drops_the_program_when_the_run_ends(self,
                                                         monkeypatch):
        spy = ProgramSpy(monkeypatch)
        ctx = SynthesisContext(hard_shape(201), Manthan3Config(seed=0))
        assert Pipeline().execute(ctx).status == Status.SYNTHESIZED
        assert ctx.program is None
        alive = weakref.ref(spy.programs.pop())
        gc.collect()
        assert alive() is None, "something outlived the run's program"

    def test_dropped_when_the_loop_is_interrupted(self, monkeypatch):
        spy = ProgramSpy(monkeypatch)
        real_run_repair = pipeline.run_repair

        def repair_then_expire(ctx, sigma_x):
            real_run_repair(ctx, sigma_x)
            if spy.programs:
                raise ResourceBudgetExceeded("deadline")
            return 0

        monkeypatch.setattr(pipeline, "run_repair", repair_then_expire)
        ctx = SynthesisContext(hard_shape(200), Manthan3Config(seed=0))
        assert Pipeline().execute(ctx).status == Status.TIMEOUT
        assert ctx.program is None
        alive = weakref.ref(spy.programs.pop())
        gc.collect()
        assert alive() is None
