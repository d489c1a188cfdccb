"""Tests for the engine's oracles: each engine round and matrix-session
query agrees with the session-free reference kernel
(``verify_candidates`` and ``detect_unates`` called without a session),
and the engine's verdicts agree with the independent checkers.
"""

import pytest

from repro.benchgen import (
    generate_planted_instance,
    generate_xor_chain_instance,
)
from repro.core import Manthan3, Manthan3Config, Status, SynthesisContext
from repro.core.preprocess import detect_unates
from repro.core.repair import find_repair_candidates, repair_iteration
from repro.core.sessions import MatrixSession, build_sessions
from repro.core.verifier import run_verify, verify_candidates
from repro.core.candidates import DependencyTracker
from repro.dqbf import check_henkin_vector
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.bitvec import EvalProgram, SampleMatrix
from repro.formula.cnf import CNF
from repro.sat.solver import SAT, UNSAT


def make(universals, deps, clauses):
    return DQBFInstance(universals, deps, CNF(clauses))


def loop_context(inst, candidates):
    """A context set up as the verify–repair loop sees it."""
    ctx = SynthesisContext(inst, Manthan3Config(seed=0))
    build_sessions(ctx)
    ctx.candidates = candidates
    ctx.order = list(inst.existentials)
    ctx.program = EvalProgram()
    return ctx


class TestEngineRound:
    """``run_verify`` (simulation, the fresh E-check, the extension
    check on the matrix session) against the session-free
    ``verify_candidates``."""

    def test_verdicts_match_fresh_path(self):
        inst = make([1], {2: [1]}, [[-2, 1], [2, -1]])
        ctx = loop_context(inst, {})
        for candidate, verdict in ((bf.var(1), "VALID"),
                                   (bf.not_(bf.var(1)), "COUNTEREXAMPLE"),
                                   (bf.var(1), "VALID")):
            ctx.candidates = {2: candidate}
            reference = verify_candidates(inst, {2: candidate})
            assert run_verify(ctx).verdict == reference.verdict == verdict
        stats = ctx.verifier_stats
        assert stats["calls"] == 2 and stats["simulated"] == 1

    def test_false_verdict_through_sessions(self):
        inst = make([1], {2: [1]}, [[1]])
        outcome = run_verify(loop_context(inst, {2: bf.TRUE}))
        assert outcome.verdict == "FALSE"
        assert outcome.sigma_x == {1: False}

    def test_empty_existentials(self):
        inst = DQBFInstance([1], {}, CNF([[1, -1]]))
        assert run_verify(loop_context(inst, {})).verdict == "VALID"


class TestMatrixSessionUnates:
    CASES = [
        make([1], {2: [1]}, [[1, 2]]),                    # positive unate
        make([1], {2: [1]}, [[1, -2]]),                   # negative unate
        make([1], {2: [1]}, [[-2, 1], [2, -1]]),          # not unate
        make([1], {2: [1], 3: [1]},
             [[1, 2], [2, -3], [3, 1]]),                  # sequential fix
        make([1, 2], {3: [1, 2], 4: [1]},
             [[1, 2, 3], [-3, -4], [4, 1]]),
    ]

    @pytest.mark.parametrize("inst", CASES)
    def test_matches_fresh_cofactor_path(self, inst):
        session = MatrixSession(inst.matrix)
        assert detect_unates(inst, matrix_session=session) == \
            detect_unates(inst)

    @pytest.mark.parametrize("inst", CASES)
    def test_session_holds_only_matrix_variables(self, inst):
        """The clause-wise unate checks are assumption queries on the
        session solver: no primed copy, no selector, no Tseitin
        variable ever reaches it."""
        session = MatrixSession(inst.matrix)
        detect_unates(inst, matrix_session=session)
        assert session.solver.num_vars == inst.matrix.num_vars
        assert session.solve([1], purpose="extension") in (SAT, UNSAT)

    def test_extension_queries_unaffected_by_unate_checks(self):
        inst = make([1], {2: [1]}, [[1, 2]])
        session = MatrixSession(inst.matrix)
        assert session.solve([-1], purpose="extension") == SAT
        assert session.model[2] is True
        detect_unates(inst, matrix_session=session)
        assert session.solve([-1], purpose="extension") == SAT
        assert session.model[2] is True


class TestFindCandiOnSession:
    """``FindCandi`` runs Fu–Malik on the matrix session itself."""

    # ϕ = (y2 ↔ x1) ∧ (y3 ↔ ¬x1) ∧ (y4 ∨ x1)
    INST = make([1], {2: [1], 3: [1], 4: [1]},
                [[-2, 1], [2, -1], [-3, -1], [3, 1], [4, 1]])

    @staticmethod
    def unassigned(session):
        return session.solver.assigns[1:].count(None)

    def test_root_level_fixing_keeps_decisions_flat(self):
        """The variables each call reserves are fixed at level 0, so
        200 calls leave no more unassigned decision variables than 1."""
        inst = self.INST
        session = MatrixSession(inst.matrix)
        wrong = {2: False, 3: False, 4: False}
        assert find_repair_candidates(inst, {1: True}, wrong, [2, 3, 4],
                                      session) == [2]
        after_one = self.unassigned(session)
        for i in range(199):
            sigma_x = {1: bool(i % 2)}
            ind = find_repair_candidates(inst, sigma_x, wrong, [2, 3, 4],
                                         session)
            assert ind == ([2] if sigma_x[1] else [3, 4])
        assert self.unassigned(session) <= after_one
        assert session.stats()["calls_maxsat"] == 200
        # Plain queries still see exactly ϕ.
        assert session.solve([1, -2], purpose="extension") == UNSAT
        assert session.solve([-1, -4], purpose="extension") == UNSAT
        assert session.solve([-1], purpose="extension") == SAT

    def test_unsat_hard_under_sigma_returns_none(self):
        # ϕ = (x1 ∨ y2) ∧ (x1 ∨ ¬y2): UNSAT once x1 = 0.
        inst = make([1], {2: [1]}, [[1, 2], [1, -2]])
        session = MatrixSession(inst.matrix)
        assert find_repair_candidates(inst, {1: False}, {2: True}, [2],
                                      session) is None
        # The session is unharmed: x1 = 1 still extends.
        assert find_repair_candidates(inst, {1: True}, {2: True}, [2],
                                      session) == []


class TestRepairWithSession:
    def test_session_repair_converges(self):
        inst = make([1, 2], {3: [1, 2]},
                    [[-3, 1, 2], [3, -1], [3, -2]])       # y ↔ (x1 ∨ x2)
        ctx = loop_context(inst, {3: bf.FALSE})
        tracker = DependencyTracker(inst.existentials)
        cex_matrix = SampleMatrix(inst.universals)
        for iteration in range(10):
            ctx.iteration = iteration
            outcome = run_verify(ctx)
            if outcome.verdict == "VALID":
                break
            repair_iteration(inst, ctx.candidates, tracker, [3],
                             outcome.sigma_x, ctx.config,
                             matrix_session=ctx.matrix_session,
                             cex_matrix=cex_matrix, program=ctx.program)
        assert verify_candidates(inst, ctx.candidates).verdict == "VALID"
        assert ctx.verifier_stats["calls"] >= 1


def _run(inst, timeout=60):
    return Manthan3(Manthan3Config(seed=9)).run(inst, timeout=timeout)


class TestEngineEquivalence:
    """The session-backed engine agrees with the independent checkers:
    synthesized vectors certify, FALSE verdicts are real."""

    def test_planted_family(self):
        for seed in (11, 12, 13):
            inst = generate_planted_instance(
                num_universals=16, num_existentials=3, dep_width=14,
                region_width=3, rules_per_y=5, seed=seed)
            result = _run(inst)
            assert result.synthesized, seed
            cert = check_henkin_vector(inst, result.functions)
            assert cert.valid, (seed, cert.reason)

    def test_false_instances(self):
        assert _run(make([1], {2: [1]}, [[1]])).status == Status.FALSE
        assert _run(make([1], {2: [1]}, [[2], [-2]])).status == \
            Status.FALSE

    def test_xor_chain_family_stays_sound(self):
        """§5-incompleteness-prone family: whether repair converges is
        trajectory luck, so only soundness is pinned here, not which of
        SYNTHESIZED/UNKNOWN the run lands on."""
        inst = generate_xor_chain_instance(chain_length=3, window=2, seed=4)
        result = _run(inst)
        assert result.status in (Status.SYNTHESIZED, Status.UNKNOWN)
        if result.synthesized:
            assert check_henkin_vector(inst, result.functions).valid

    def test_engine_reports_oracle_stats(self):
        inst = generate_planted_instance(
            num_universals=14, num_existentials=3, dep_width=12,
            region_width=3, rules_per_y=4, seed=21)
        oracle = _run(inst).stats["oracle"]
        assert set(oracle) == {"matrix", "verifier", "sampler", "backend",
                               "failovers"}
        assert oracle["verifier"]["calls"] >= 1
        assert oracle["verifier"]["encode_misses"] >= 1
        assert oracle["matrix"]["conflicts"] >= 0
        assert oracle["sampler"]["calls"] >= 1
