"""Tests for simulate-then-SAT verification: the bit-parallel
simulation that finds counterexamples before the SAT verifier is asked
(``repro.core.verifier.simulate``)."""

import itertools
import random

from repro.benchgen import generate_planted_instance
from repro.core import Manthan3, Manthan3Config, Status
from repro.core import pipeline
from repro.core.repair import evaluate_vector
from repro.core.sessions import MatrixSession, VerifierSession
from repro.core.verifier import simulate, verify_candidates
from repro.dqbf import check_henkin_vector
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.bitvec import EvalProgram
from repro.formula.cnf import CNF
from repro.sat.solver import UNSAT


def random_expr(rng, pool, depth):
    """A random expression over the variables in ``pool``."""
    if depth == 0 or not pool or rng.random() < 0.25:
        if not pool or rng.random() < 0.1:
            return bf.const(rng.random() < 0.5)
        return bf.var(rng.choice(pool))
    op = rng.choice((bf.and_, bf.or_, bf.xor, bf.not_))
    if op is bf.not_:
        return bf.not_(random_expr(rng, pool, depth - 1))
    return op(*(random_expr(rng, pool, depth - 1)
                for _ in range(rng.randint(2, 3))))


def random_case(rng):
    """A small random DQBF, a random candidate vector and its order.

    Each candidate reads its dependency set and the outputs ordered
    after it, as the engine's candidates do.
    """
    universals = list(range(1, rng.randint(1, 5) + 1))
    ys = list(range(len(universals) + 1,
                    len(universals) + rng.randint(1, 4) + 1))
    deps = {y: [x for x in universals if rng.random() < 0.6] for y in ys}
    variables = universals + ys
    clauses = [[v if rng.random() < 0.5 else -v
                for v in rng.sample(variables, min(3, len(variables)))]
               for _ in range(rng.randint(1, 8))]
    inst = DQBFInstance(universals, deps, CNF(clauses))
    order = list(ys)
    rng.shuffle(order)
    candidates = {y: random_expr(rng, deps[y] + order[i + 1:], 3)
                  for i, y in enumerate(order)}
    return inst, candidates, order


def falsifies(clauses, assignment):
    """Does some clause evaluate to false under ``assignment``?"""
    return any(not any(assignment[abs(lit)] == (lit > 0) for lit in clause)
               for clause in clauses)


class TestSimulatedCounterexamples:
    def test_every_simulated_counterexample_is_a_model_of_e(self):
        rng = random.Random(2024)
        found_count = none_count = 0
        for case in range(300):
            inst, candidates, order = random_case(rng)
            found = simulate(inst, candidates, order, random.Random(case),
                             EvalProgram())
            # With at most 5 universals every X assignment is among the
            # SIM_WIDTH patterns (a miss has probability below 1e-13),
            # so simulation answers exactly when E has a model.
            clauses = inst.matrix.clauses
            broken = []
            for bits in itertools.product((False, True),
                                          repeat=len(inst.universals)):
                sigma = dict(zip(inst.universals, bits))
                outputs = evaluate_vector(candidates, order, sigma)
                if falsifies(clauses, {**sigma, **outputs}):
                    broken.append(sigma)
            if found is None:
                none_count += 1
                assert not broken, "simulation missed a counterexample"
                continue
            found_count += 1
            sigma_x, sigma_yp = found
            assert set(sigma_x) == set(inst.universals)
            assert set(sigma_yp) == set(inst.existentials)
            assert sigma_yp == evaluate_vector(candidates, order, sigma_x)
            assert falsifies(clauses, {**sigma_x, **sigma_yp})
            assert sigma_x in broken
        assert found_count > 50 and none_count > 20

    def test_verify_candidates_reports_the_simulated_counterexample(self):
        inst = DQBFInstance([1, 2], {3: [1, 2]},
                            CNF([[-3, 1, 2], [3, -1], [3, -2]]))
        session = VerifierSession(inst)
        outcome = verify_candidates(inst, {3: bf.FALSE}, order=[3],
                                    rng=7, session=session,
                                    matrix_session=MatrixSession(inst.matrix),
                                    program=EvalProgram())
        assert outcome.verdict == "COUNTEREXAMPLE"
        assert outcome.sigma_x[1] or outcome.sigma_x[2]
        assert outcome.sigma_yp == {3: False}
        assert outcome.sigma_y == {3: True}
        assert session.stats()["simulated"] == 1
        assert session.stats()["calls"] == 0


class SolveSpy:
    """Records every verifier-session answer, and per verification
    round the verdict plus the answers given during that round."""

    def __init__(self, monkeypatch):
        self.answers = []
        self.rounds = []
        real_solve = VerifierSession.solve
        real_run_verify = pipeline.run_verify

        def solve(session, candidates, deadline=None):
            status = real_solve(session, candidates, deadline=deadline)
            self.answers.append(status)
            return status

        def run_verify(ctx):
            start = len(self.answers)
            outcome = real_run_verify(ctx)
            self.rounds.append((outcome.verdict, self.answers[start:]))
            return outcome

        monkeypatch.setattr(VerifierSession, "solve", solve)
        monkeypatch.setattr(pipeline, "run_verify", run_verify)


class TestValidNeedsUnsat:
    def test_valid_only_after_an_unsat_answer(self, monkeypatch):
        spy = SolveSpy(monkeypatch)
        for seed in (200, 201):
            inst = generate_planted_instance(
                num_universals=16, num_existentials=4, dep_width=12,
                region_width=5, rules_per_y=10, seed=seed)
            result = Manthan3(Manthan3Config(seed=0)).run(inst)
            assert result.status == Status.SYNTHESIZED
        assert [verdict for verdict, _ in spy.rounds].count("VALID") == 2
        for verdict, answers in spy.rounds:
            if verdict == "VALID":
                assert answers and answers[-1] == UNSAT
            else:
                assert UNSAT not in answers
        # simulation answered rounds that never reached the verifier
        assert any(not answers for _, answers in spy.rounds)

    def test_correct_vector_goes_to_the_verifier(self, monkeypatch):
        spy = SolveSpy(monkeypatch)
        inst = DQBFInstance([1, 2], {3: [1, 2]},
                            CNF([[-3, 1, 2], [3, -1], [3, -2]]))
        session = VerifierSession(inst)
        outcome = verify_candidates(
            inst, {3: bf.or_(bf.var(1), bf.var(2))}, order=[3],
            session=session, matrix_session=MatrixSession(inst.matrix),
            program=EvalProgram())
        assert outcome.verdict == "VALID"
        assert spy.answers == [UNSAT]
        assert session.stats()["simulated"] == 0


class TestHardShape:
    def test_simulation_answers_most_rounds(self):
        inst = generate_planted_instance(
            num_universals=16, num_existentials=4, dep_width=12,
            region_width=5, rules_per_y=10, seed=200)
        result = Manthan3(Manthan3Config(seed=0)).run(inst)
        assert result.status == Status.SYNTHESIZED
        assert check_henkin_vector(inst, result.functions).valid
        verifier = result.stats["oracle"]["verifier"]
        assert verifier["simulated"] > 0
        assert verifier["calls"] < result.stats["repair_iterations"]
