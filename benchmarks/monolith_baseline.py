"""The frozen pre-pipeline engine: PR 3's ``Manthan3._run`` monolith.

This is the 150-line hardcoded phase sequence the staged pipeline
(:mod:`repro.core.pipeline`) replaced, kept *verbatim* — same kernel
calls, same RNG spawn sequence, same control flow — for two consumers:

* ``benchmarks/bench_pipeline_overhead.py`` measures the staged
  pipeline's dispatch overhead against it (phases, per-phase
  stopwatches, and budget bookkeeping are pure overhead relative to
  this baseline — the gate is ≤5% on the planted suite);
* ``tests/core/test_pipeline.py`` asserts trajectory equivalence: the
  staged pipeline must reproduce this engine's statuses AND functions
  exactly, at engine and campaign level.

Do not "improve" this file: its value is being a faithful snapshot of
the pre-refactor behavior.  It intentionally retains the PR 3 timeout
bug (a ``ResourceBudgetExceeded`` unwind drops all accumulated stats) —
that is part of what the pipeline fixed.
"""

from repro.core.candidates import learn_all_candidates
from repro.core.config import Manthan3Config
from repro.formula.bitvec import SampleMatrix
from repro.core.order import find_order, substitute_candidates
from repro.core.preprocess import preprocess
from repro.core.repair import repair_iteration
from repro.core.result import SynthesisResult, Status
from repro.core.selfsub import self_substitute
from repro.core.sessions import MatrixSession, VerifierSession
from repro.core.verifier import verify_candidates
from repro.formula.simplify import propagate_units
from repro.sampling import Sampler
from repro.utils.errors import ResourceBudgetExceeded
from repro.utils.rng import make_rng, spawn
from repro.utils.timer import Deadline, Stopwatch


class MonolithManthan3:
    """PR 3's ``Manthan3``: one monolithic ``_run``, no pipeline."""

    name = "manthan3-monolith"

    def __init__(self, config=None):
        self.config = config or Manthan3Config()

    def run(self, instance, timeout=None):
        deadline = Deadline(timeout)
        stopwatch = Stopwatch().start()
        try:
            return self._run(instance, deadline, stopwatch)
        except ResourceBudgetExceeded:
            return SynthesisResult(
                Status.TIMEOUT,
                stats={"wall_time": stopwatch.stop()},
                reason="budget exhausted")

    # ------------------------------------------------------------------
    def _run(self, instance, deadline, stopwatch):
        config = self.config
        rng = make_rng(config.seed)
        oracle_rng = spawn(rng, 5)
        stats = {"samples": 0, "repair_iterations": 0,
                 "candidates_learned": 0}

        units = {}
        _, up_conflict = propagate_units(list(instance.matrix.clauses),
                                         units)
        if up_conflict:
            return self._finish(Status.FALSE, stats, stopwatch,
                                reason="matrix is unsatisfiable")
        for x in instance.universals:
            if x in units:
                witness = {u: False for u in instance.universals}
                witness[x] = not units[x]
                return self._finish(
                    Status.FALSE, stats, stopwatch,
                    reason="matrix forces universal x%d" % x,
                    witness=witness)

        matrix_session = MatrixSession(instance.matrix,
                                       rng=spawn(oracle_rng, 1))
        verifier_session = VerifierSession(instance,
                                           rng=spawn(oracle_rng, 2))
        sessions = [("matrix", matrix_session),
                    ("verifier", verifier_session)]

        def finish(status, **kwargs):
            oracle = {name: session.stats()
                      for name, session in sessions}
            oracle["sampler"] = sampler.stats()
            stats["oracle"] = oracle
            return self._finish(status, stats, stopwatch, **kwargs)

        weighted = instance.existentials if config.adaptive_sampling else ()
        sampler = Sampler(instance.matrix, rng=spawn(rng, 1),
                          weighted_vars=weighted)
        samples = sampler.draw(config.num_samples, deadline=deadline,
                               conflict_budget=config.sat_conflict_budget,
                               packed=True)
        stats["samples"] = len(samples)
        if not samples:
            return finish(Status.FALSE,
                          reason="matrix is unsatisfiable")

        pre = preprocess(instance, config, deadline=deadline,
                         rng=spawn(rng, 2), matrix_session=matrix_session)
        stats.update({"fixed_" + k: v for k, v in pre.stats.items()})

        learn_stats = {}
        candidates, tracker = learn_all_candidates(instance, samples, config,
                                                   fixed=pre.fixed,
                                                   stats=learn_stats)
        stats["candidates_learned"] = (len(candidates) - len(pre.fixed))
        stats["learning"] = learn_stats

        order = find_order(instance, tracker)

        cex_matrix = SampleMatrix(instance.universals)
        stagnation = 0
        repair_counts = {}
        non_repairable = dict(pre.fixed)
        stats["self_substitutions"] = 0
        for iteration in range(config.max_repair_iterations + 1):
            deadline.check()
            outcome = verify_candidates(
                instance, candidates, rng=spawn(rng, 100 + iteration),
                deadline=deadline,
                conflict_budget=config.sat_conflict_budget,
                session=verifier_session, matrix_session=matrix_session)
            if outcome.verdict == "VALID":
                final = substitute_candidates(instance, candidates, order)
                stats["repair_iterations"] = iteration
                return finish(Status.SYNTHESIZED, functions=final)
            if outcome.verdict == "FALSE":
                stats["repair_iterations"] = iteration
                return finish(
                    Status.FALSE,
                    reason="X assignment admits no Y extension",
                    witness=outcome.sigma_x)
            if iteration == config.max_repair_iterations:
                break
            modified = repair_iteration(
                instance, candidates, tracker, order, outcome.sigma_x,
                config, fixed=non_repairable,
                rng=spawn(rng, 200 + iteration),
                deadline=deadline, repair_counts=repair_counts,
                matrix_session=matrix_session, cex_matrix=cex_matrix)
            if config.use_self_substitution:
                for yk, count in list(repair_counts.items()):
                    if count <= config.self_substitution_threshold or \
                            yk in non_repairable:
                        continue
                    applied = self_substitute(
                        instance, candidates, tracker, yk,
                        max_dag_size=config.self_substitution_max_dag)
                    if applied:
                        non_repairable[yk] = candidates[yk]
                        stats["self_substitutions"] += 1
                        order = find_order(instance, tracker)
            if modified == 0:
                stagnation += 1
                if stagnation >= config.stagnation_limit:
                    stats["repair_iterations"] = iteration + 1
                    return finish(
                        Status.UNKNOWN,
                        reason="repair stagnated (incompleteness, paper §5)")
            else:
                stagnation = 0
        stats["repair_iterations"] = config.max_repair_iterations
        return finish(Status.UNKNOWN,
                      reason="repair iteration budget exhausted")

    def _finish(self, status, stats, stopwatch, functions=None, reason="",
                witness=None):
        stats["wall_time"] = stopwatch.stop()
        return SynthesisResult(status, functions=functions, stats=stats,
                               reason=reason, witness=witness)
