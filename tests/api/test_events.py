"""The typed event stream: ordering, content, isolation, IPC relay."""

from repro.api import (
    CounterexampleFound,
    PartialAvailable,
    PhaseFinished,
    PhaseStarted,
    RepairRound,
    SolveFinished,
    Solver,
    solve_batch,
)
from repro.benchgen import generate_pec_instance, generate_planted_instance
from repro.core.events import Event


def _repairing_instance():
    """Small planted instance whose solve takes a few repair rounds."""
    return generate_planted_instance(
        num_universals=14, num_existentials=3, dep_width=12,
        region_width=3, rules_per_y=4, seed=40)


def _solve_with_events(instance, **solver_kwargs):
    solver = Solver("manthan3", **solver_kwargs)
    events = []
    solver.subscribe(events.append)
    solution = solver.solve(instance, timeout=60)
    return solution, events


class TestStreamShape:
    def test_phases_bracketed_and_finished_last(self):
        solution, events = _solve_with_events(_repairing_instance(),
                                              seed=9)
        assert solution.synthesized
        assert isinstance(events[0], PhaseStarted)
        assert events[0].phase == "unit_fastpath"
        assert isinstance(events[-1], SolveFinished)
        assert events[-1].status == solution.status
        assert events[-1].wall_time == solution.stats["wall_time"]
        started = [e.phase for e in events if isinstance(e, PhaseStarted)]
        finished = [e.phase for e in events
                    if isinstance(e, PhaseFinished)]
        assert started == finished  # every phase is bracketed, in order
        assert started == list(solution.stats["phases"])

    def test_phase_times_match_stats(self):
        solution, events = _solve_with_events(_repairing_instance(),
                                              seed=9)
        for event in events:
            if isinstance(event, PhaseFinished):
                assert event.elapsed >= 0
                assert round(event.elapsed, 6) == \
                    solution.stats["phases"][event.phase]

    def test_repair_loop_events(self):
        solution, events = _solve_with_events(_repairing_instance(),
                                              seed=9)
        rounds = [e for e in events if isinstance(e, RepairRound)]
        cexes = [e for e in events
                 if isinstance(e, CounterexampleFound)]
        assert solution.stats["repair_iterations"] > 0
        assert len(cexes) == solution.stats["repair_iterations"]
        assert len(rounds) == len(cexes)
        assert [e.iteration for e in rounds] == list(range(len(rounds)))
        universals = set(_repairing_instance().universals)
        for event in cexes:
            assert set(event.sigma_x) == universals
            assert all(isinstance(v, bool)
                       for v in event.sigma_x.values())

    def test_partial_available_on_unknown(self):
        # pec seed 7 stagnates to UNKNOWN with a candidate vector.
        inst = generate_pec_instance(num_inputs=6, num_outputs=3,
                                     num_boxes=2, depth=3,
                                     realizable=True, seed=7)
        solution, events = _solve_with_events(inst, seed=9)
        if solution.partial_functions is not None:
            partials = [e for e in events
                        if isinstance(e, PartialAvailable)]
            assert len(partials) == 1
            assert partials[0].functions == len(solution.partial_functions)

    def test_in_process_events_are_unstamped(self):
        _solution, events = _solve_with_events(_repairing_instance(),
                                               seed=9)
        assert all(e.engine is None and e.instance is None
                   for e in events)

    def test_as_dict(self):
        _solution, events = _solve_with_events(_repairing_instance(),
                                               seed=9)
        data = events[0].as_dict()
        assert data["kind"] == "phase_started"
        assert data["phase"] == "unit_fastpath"


class TestObservationIsNeutral:
    def test_listeners_do_not_change_the_trajectory(self):
        inst = _repairing_instance()
        observed, events = _solve_with_events(inst, seed=9)
        blind = Solver("manthan3", seed=9).solve(inst, timeout=60)
        assert events
        assert observed.status == blind.status
        assert {y: f.to_infix() for y, f in observed.functions.items()} \
            == {y: f.to_infix() for y, f in blind.functions.items()}

    def test_no_listener_constructs_no_event(self, monkeypatch):
        """Unobserved solves take the guard path: not one ``Event`` is
        built, while one listener makes the same solve build some."""
        built = []
        init = Event.__init__

        def counting_init(self):
            built.append(type(self))
            init(self)
        monkeypatch.setattr(Event, "__init__", counting_init)
        inst = _repairing_instance()
        assert Solver("manthan3", seed=9).solve(inst, timeout=60).synthesized
        assert built == []
        _solve_with_events(inst, seed=9)
        assert built

    def test_raising_listener_is_isolated(self):
        inst = _repairing_instance()
        solver = Solver("manthan3", seed=9)
        seen = []
        solver.subscribe(seen.append)

        def bomb(_event):
            raise RuntimeError("observer bug")
        solver.subscribe(bomb)
        solution = solver.solve(inst, timeout=60)
        assert solution.synthesized
        assert solution.stats["listener_errors"] == len(seen)

    def test_unsubscribe(self):
        solver = Solver("manthan3", seed=9)
        events = []
        listener = solver.subscribe(events.append)
        solver.unsubscribe(listener)
        assert solver.solve(_repairing_instance(), timeout=60).synthesized
        assert events == []


class TestBatchRelay:
    def test_events_relayed_and_stamped(self):
        problems = [
            generate_planted_instance(
                num_universals=14, num_existentials=3, dep_width=12,
                region_width=3, rules_per_y=4, seed=40 + i)
            for i in range(2)
        ]
        for jobs in (1, 2):
            solver = Solver("manthan3")
            events = []
            solver.subscribe(events.append)
            batch = solve_batch(problems, [solver], timeout=60,
                                jobs=jobs, seed=0)
            assert all(s.synthesized for s in batch.solutions)
            finishes = [e for e in events
                        if isinstance(e, SolveFinished)]
            assert {e.instance for e in finishes} \
                == {p.name for p in problems}
            assert all(e.engine == "manthan3" for e in events)
