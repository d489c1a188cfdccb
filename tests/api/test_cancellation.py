"""Cooperative cancellation: phase-boundary solve interruption with
partial-bearing results, and job-grained batch aborts."""

from repro.api import (
    CancellationToken,
    CounterexampleFound,
    PhaseFinished,
    Solver,
    Status,
    solve_batch,
)
from repro.benchgen import generate_planted_instance


def _instance(seed=101):
    return generate_planted_instance(
        num_universals=20, num_existentials=4, dep_width=18,
        region_width=3, rules_per_y=6, seed=seed)


class TestToken:
    def test_latch_semantics(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel()
        token.cancel()  # idempotent
        assert token.cancelled
        assert "cancelled=True" in repr(token)


class TestSolveCancellation:
    def test_pre_cancelled_token_short_circuits(self):
        token = CancellationToken()
        token.cancel()
        solution = Solver("manthan3", seed=9).solve(
            _instance(), timeout=60, cancel=token)
        assert solution.status == Status.CANCELLED
        assert solution.cancelled
        assert solution.reason == "cancelled by caller"

    def test_cancel_after_learn_returns_partial(self):
        """Cancelling at a phase boundary yields the learned candidates
        as an anytime partial."""
        token = CancellationToken()
        solver = Solver("manthan3", seed=9)

        def cancel_after_learn(event):
            if isinstance(event, PhaseFinished) and event.phase == "learn":
                token.cancel()
        solver.subscribe(cancel_after_learn)
        solution = solver.solve(_instance(), timeout=60, cancel=token)
        assert solution.status == Status.CANCELLED
        assert solution.partial_functions  # candidates were learned
        # No phase after "order" ran: cancellation struck within one
        # phase boundary of the cancel() call.
        assert "verify_repair" not in solution.stats["phases"]

    def test_cancel_mid_repair_loop(self):
        """The verify-repair loop honors the token between iterations,
        not just between phases."""
        token = CancellationToken()
        solver = Solver("manthan3", seed=9)

        def cancel_on_first_cex(event):
            if isinstance(event, CounterexampleFound):
                token.cancel()
        solver.subscribe(cancel_on_first_cex)
        solution = solver.solve(_instance(), timeout=60, cancel=token)
        assert solution.status == Status.CANCELLED
        assert solution.partial_functions
        # It stopped after the first round, well short of the solve's
        # natural 5 repair iterations.
        assert solution.stats["repair_iterations"] <= 2

    def test_cancellation_does_not_disturb_later_solves(self):
        solver = Solver("manthan3", seed=9)
        token = CancellationToken()
        token.cancel()
        cancelled = solver.solve(_instance(), timeout=60, cancel=token)
        assert cancelled.status == Status.CANCELLED
        clean = solver.solve(_instance(), timeout=60)
        assert clean.synthesized


class TestBatchCancellation:
    def _problems(self, count=4):
        return [_instance(seed=101 + i) for i in range(count)]

    def test_cancel_mid_campaign_serial(self):
        token = CancellationToken()
        solver = Solver("manthan3")
        seen = []

        def cancel_after_first(record):
            seen.append(record)
            token.cancel()
        batch = solve_batch(self._problems(), [solver], timeout=60,
                            jobs=1, seed=0, progress=cancel_after_first,
                            cancel=token)
        statuses = [s.status for s in batch.solutions]
        assert statuses[0] == Status.SYNTHESIZED
        assert all(s == Status.CANCELLED for s in statuses[1:])

    def test_cancelled_records_are_not_persisted(self, tmp_path):
        """Resume after a cancellation re-executes exactly the skipped
        jobs — CANCELLED must never be stored as a completed outcome."""
        store = str(tmp_path / "campaign.jsonl")
        token = CancellationToken()
        solver = Solver("manthan3")
        cancelled = solve_batch(
            self._problems(), [solver], timeout=60, jobs=1, seed=0,
            store=store, progress=lambda _record: token.cancel(),
            cancel=token)
        skipped = [s for s in cancelled.solutions
                   if s.status == Status.CANCELLED]
        assert skipped  # the token really struck mid-campaign
        executed = []
        resumed = solve_batch(self._problems(), [solver], timeout=60,
                              jobs=1, seed=0, store=store, resume=True,
                              progress=executed.append)
        assert len(executed) == len(skipped)
        assert all(s.status == Status.SYNTHESIZED
                   for s in resumed.solutions)

    def test_cancel_mid_campaign_pool(self):
        token = CancellationToken()
        token.cancel()  # cancel before any worker launches
        solver = Solver("manthan3")
        batch = solve_batch(self._problems(), [solver], timeout=60,
                            jobs=2, seed=0, cancel=token)
        assert all(s.status == Status.CANCELLED
                   for s in batch.solutions)
        assert all(s.stats.get("cancelled")
                   for s in batch.solutions)
