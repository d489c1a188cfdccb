"""Tests for syntactic gate detection."""

from repro.definability.gates import find_gate_definitions
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.formula.tseitin import TseitinEncoder


class TestPatterns:
    def test_and_gate(self):
        # y3 ↔ (1 ∧ 2)
        cnf = CNF([[-3, 1], [-3, 2], [3, -1, -2]])
        defs = find_gate_definitions(cnf)
        assert 3 in defs
        assert defs[3][0].kind == "AND"
        assert defs[3][0].input_vars == frozenset({1, 2})

    def test_or_gate(self):
        cnf = CNF([[3, -1], [3, -2], [-3, 1, 2]])
        defs = find_gate_definitions(cnf)
        assert defs[3][0].kind == "OR"

    def test_equality_gate(self):
        cnf = CNF([[-3, 1], [3, -1]])
        defs = find_gate_definitions(cnf)
        assert 3 in defs
        assert defs[3][0].expr is bf.var(1)

    def test_negation_gate(self):
        cnf = CNF([[-3, -1], [3, 1]])
        defs = find_gate_definitions(cnf)
        assert 3 in defs
        assert defs[3][0].expr is bf.not_(bf.var(1))

    def test_xor_gate(self):
        cnf = CNF([[-3, 1, 2], [-3, -1, -2], [3, -1, 2], [3, 1, -2]])
        defs = find_gate_definitions(cnf)
        assert defs[3][0].kind == "XOR"

    def test_and_with_negated_inputs(self):
        # y3 ↔ (¬1 ∧ 2)
        cnf = CNF([[-3, -1], [-3, 2], [3, 1, -2]])
        defs = find_gate_definitions(cnf)
        assert 3 in defs
        env = {1: False, 2: True}
        assert defs[3][0].expr.evaluate(env)

    def test_wide_and(self):
        cnf = CNF([[-5, 1], [-5, 2], [-5, 3], [-5, 4], [5, -1, -2, -3, -4]])
        defs = find_gate_definitions(cnf)
        assert defs[5][0].input_vars == frozenset({1, 2, 3, 4})

    def test_candidates_filter(self):
        cnf = CNF([[-3, 1], [3, -1]])
        assert find_gate_definitions(cnf, candidates={2}) == {}

    def test_no_false_positive_on_partial_pattern(self):
        # only half of the AND pattern present
        cnf = CNF([[-3, 1], [-3, 2]])
        assert 3 not in find_gate_definitions(cnf)


class TestMatchOrder:
    def test_every_match_kept_forward_first(self):
        # g4 ↔ (x1 ∧ x2) and y5 ↔ g4: g4 matches its AND gate (forward)
        # and g4 ↔ y5 (backward, found first by the equality scan).
        cnf = CNF([[-4, 1], [-4, 2], [4, -1, -2], [-5, 4], [5, -4]])
        defs = find_gate_definitions(cnf)
        assert [(d.kind, d.input_vars) for d in defs[4]] == \
            [("AND", frozenset({1, 2})), ("EQ", frozenset({5}))]
        assert [(d.kind, d.input_vars) for d in defs[5]][0] == \
            ("EQ", frozenset({4}))


class TestSemantics:
    def test_tseitin_roundtrip(self):
        """Every Tseitin gate of a random circuit must be rediscovered
        with correct semantics."""
        expr = bf.or_(bf.and_(bf.var(1), bf.not_(bf.var(2))),
                      bf.xor(bf.var(2), bf.var(3)))
        cnf = CNF(num_vars=3)
        enc = TseitinEncoder(cnf)
        out = enc.encode(expr)
        defs = find_gate_definitions(cnf)
        assert abs(out) in defs or out in (1, 2, 3, -1, -2, -3)
        # gate semantics: check each definition on all inputs
        import itertools

        for gate in (g for gates in defs.values() for g in gates):
            ins = sorted(gate.input_vars)
            for bits in itertools.product([False, True], repeat=len(ins)):
                env = dict(zip(ins, bits))
                gate.expr.evaluate(env)  # must not raise / must be total
