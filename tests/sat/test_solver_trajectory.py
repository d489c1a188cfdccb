"""Trajectory pin for the reference CDCL solver.

The differential fuzzer compares ``python`` against ``python-emulated``,
and both wrap the same :class:`~repro.sat.solver.Solver`, so a change to
the solver's *search* (watch order, literal swaps, heap order, learnt
clauses) is invisible to it as long as the verdicts stay right.  This
test pins the search itself: a seeded corpus of incremental scripts runs
on :class:`Solver`, and every observable — each ``add_clause`` return,
each ``solve`` status, model, core and ``stats()`` — is folded into one
SHA-256 that must equal :data:`TRAJECTORY_SHA256`.

The corpus covers solves that restart, solves that reach the learnt-
clause reduction and the activity rescale, clause groups opened and
released, assumption cores, conflict-budget ``UNKNOWN`` answers and
every polarity mode.  It uses
no deadlines: those depend on the clock.

A change that is meant to alter the search re-baselines the constant
deliberately (print :func:`corpus_digest`'s value and update it, saying
why in the change's description); any other change must leave it alone.
"""

import hashlib
import random

import pytest

from repro.sat.solver import SAT, UNKNOWN, UNSAT, Solver

#: Digest of the corpus below on the reference solver.
TRAJECTORY_SHA256 = \
    "a39357c181b58369a4772c19d8a0fbce5aa4e052aef2e7bdc9d67289b6637482"


class _CountingSolver(Solver):
    """:class:`Solver` that counts learnt-DB reductions; the search is
    untouched, so its trajectory is the plain solver's."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reductions = 0

    def _reduce_db(self):
        self.reductions += 1
        super()._reduce_db()


class _Recorder:
    """Folds every observable of a script into one running digest and
    tallies which regimes the corpus reached."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.coverage = {"restarted": 0, "reduced": 0, "rescaled": 0,
                         "released": 0, "core": 0, "unknown": 0, "sat": 0,
                         "unsat": 0}

    def fold(self, *items):
        self.digest.update(repr(items).encode() + b"\n")

    def add(self, solver, lits, group=None):
        self.fold("add", solver.add_clause(lits, group=group), solver.ok)

    def solve(self, solver, assumptions=(), conflict_budget=None):
        before = solver.restarts
        status = solver.solve(assumptions=assumptions,
                              conflict_budget=conflict_budget)
        model = sorted(solver.model.items()) if status == SAT else None
        core = list(solver.core) if status == UNSAT else None
        self.fold("solve", status, model, core,
                  sorted(solver.stats().items()))
        self.coverage["restarted"] += solver.restarts > before
        self.coverage["core"] += bool(core)
        self.coverage[{SAT: "sat", UNSAT: "unsat",
                       UNKNOWN: "unknown"}[status]] += 1
        return status

    def release(self, solver, group):
        solver.release_group(group)
        self.coverage["released"] += 1
        self.fold("release", group, solver.ok)


def _random_clause(rng, num_vars, width):
    return [v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), width)]


def _random_assumptions(rng, num_vars, count):
    return [v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), count)]


def _hard_random(rec, seed, num_vars, num_clauses):
    """Random 3-SAT near the phase transition: one long solve with
    restarts and learnt-DB reductions (and, at 170 variables, enough
    conflicts to rescale the activities), then a query under
    assumptions."""
    rng = random.Random(seed)
    solver = _CountingSolver(rng=seed)
    for _ in range(num_clauses):
        rec.add(solver, _random_clause(rng, num_vars, 3))
    rec.solve(solver)
    rec.solve(solver, _random_assumptions(rng, num_vars, 3))
    return solver


def _assumption_session(rec, seed):
    """One long-lived solver answering many assumption queries, some
    under a conflict budget, with clauses added between queries."""
    rng = random.Random(seed)
    solver = _CountingSolver(rng=seed)
    solver.ensure_vars(60)
    for _ in range(250):
        rec.add(solver, _random_clause(rng, 60, 3))
    for round_no in range(60):
        budget = rng.choice([None, None, 3, 20])
        rec.solve(solver, _random_assumptions(rng, 60, rng.randint(0, 8)),
                  conflict_budget=budget)
        if round_no % 7 == 6:
            rec.add(solver, _random_clause(rng, 60, 3))
    return solver


def _group_session(rec, seed):
    """Clause groups opened, filled, solved under and released, with
    problem clauses added in between (the oracle sessions' pattern)."""
    rng = random.Random(seed)
    solver = _CountingSolver(rng=seed)
    num_vars = 30
    solver.ensure_vars(num_vars)
    for _ in range(90):
        rec.add(solver, _random_clause(rng, num_vars, 3))
    live = []
    for _ in range(50):
        r = rng.random()
        if r < 0.3:
            group = solver.new_group()
            live.append(group)
            for _ in range(rng.randint(1, 6)):
                rec.add(solver, _random_clause(rng, num_vars,
                                               rng.choice([1, 2, 3, 3, 3])),
                        group=group)
        elif r < 0.45 and live:
            rec.release(solver, live.pop(rng.randrange(len(live))))
        elif r < 0.55:
            rec.add(solver, _random_clause(rng, num_vars, 3))
        else:
            rec.solve(solver,
                      _random_assumptions(rng, num_vars, rng.randint(0, 5)),
                      conflict_budget=rng.choice([None, None, 2]))
    return solver


def _polarity_draws(rec, seed):
    """Sampler-style draws under every polarity mode, with random
    branching and the RNG re-seeded between draws."""
    rng = random.Random(seed)
    clauses = [_random_clause(rng, 30, 3) for _ in range(110)]
    weights = {v: rng.random() for v in range(1, 31)}
    solvers = []
    for mode, freq, phase in (("random", 0.2, False), ("weighted", 0.1, False),
                              ("true", 0.0, False), ("false", 0.0, True),
                              ("saved", 0.05, True)):
        solver = _CountingSolver(rng=seed, polarity_mode=mode,
                                 random_var_freq=freq, default_phase=phase,
                                 polarity_weights=dict(weights))
        for clause in clauses:
            rec.add(solver, clause)
        for draw in range(6):
            solver.rng = random.Random(seed * 100 + draw)
            rec.solve(solver, _random_assumptions(rng, 30, 2))
        solvers.append(solver)
    return solvers


def _clause_edges(rec, seed):
    """``add_clause`` corner cases: tautologies, duplicate and
    root-falsified literals, units that propagate, variables beyond the
    current range, and a root conflict that leaves the solver UNSAT."""
    rng = random.Random(seed)
    solver = _CountingSolver(rng=seed)
    for lits in ([1, -1, 2], [3, 3, -4], [5], [-5, 6, 7], [-6, -5],
                 [40, -41], [7, -7], [2, 2], [-2, 8, 9], [-8, -9]):
        rec.add(solver, lits)
    rec.solve(solver, [9])
    rec.solve(solver, [-7, 8])
    for _ in range(20):
        rec.add(solver, _random_clause(rng, 12, rng.choice([1, 2, 3])))
        rec.solve(solver, _random_assumptions(rng, 12, 2))
    rec.add(solver, [])
    rec.solve(solver, [1])
    return solver


SCRIPTS = (
    (_hard_random, 11, 170, 730),
    (_hard_random, 12, 130, 560),
    (_assumption_session, 21),
    (_group_session, 31),
    (_group_session, 32),
    (_polarity_draws, 41),
    (_clause_edges, 51),
)


def corpus_digest():
    """Run the whole corpus; return ``(hexdigest, coverage)``."""
    rec = _Recorder()
    for script, *params in SCRIPTS:
        rec.fold("script", script.__name__, params)
        result = script(rec, *params)
        for solver in result if isinstance(result, list) else [result]:
            rec.coverage["reduced"] += solver.reductions
            # var_inc grows by 1/decay per conflict; a rescale divides
            # it by 1e100.
            rec.coverage["rescaled"] += solver.var_inc < \
                (1 / solver.var_decay) ** solver.conflicts / 2
    return rec.digest.hexdigest(), rec.coverage


@pytest.fixture(scope="module")
def corpus():
    return corpus_digest()


def test_corpus_covers_every_regime(corpus):
    _, coverage = corpus
    for regime, count in coverage.items():
        assert count > 0, "corpus never reached %r: %r" % (regime, coverage)


def test_trajectory_is_pinned(corpus):
    digest, _ = corpus
    assert digest == TRAJECTORY_SHA256


if __name__ == "__main__":
    print(corpus_digest())
