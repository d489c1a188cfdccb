"""Tests for the Boolean expression DAG."""

import pytest
from hypothesis import given, strategies as st

from repro.formula import boolfunc as bf
from repro.utils.errors import ReproError


class TestConstructors:
    def test_constants(self):
        assert bf.TRUE.is_true()
        assert bf.FALSE.is_false()
        assert bf.const(True) is bf.TRUE

    def test_var_interned(self):
        assert bf.var(3) is bf.var(3)

    def test_var_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            bf.var(0)
        with pytest.raises(ReproError):
            bf.var(-2)

    def test_lit(self):
        assert bf.lit(4) is bf.var(4)
        assert bf.lit(-4) is bf.not_(bf.var(4))
        with pytest.raises(ReproError):
            bf.lit(0)

    def test_double_negation(self):
        x = bf.var(1)
        assert bf.not_(bf.not_(x)) is x

    def test_not_constant_folds(self):
        assert bf.not_(bf.TRUE) is bf.FALSE


class TestAndOr:
    def test_identity_elements(self):
        x = bf.var(1)
        assert bf.and_(x, bf.TRUE) is x
        assert bf.or_(x, bf.FALSE) is x

    def test_annihilators(self):
        x = bf.var(1)
        assert bf.and_(x, bf.FALSE) is bf.FALSE
        assert bf.or_(x, bf.TRUE) is bf.TRUE

    def test_empty(self):
        assert bf.and_() is bf.TRUE
        assert bf.or_() is bf.FALSE

    def test_flattening(self):
        x, y, z = bf.var(1), bf.var(2), bf.var(3)
        nested = bf.and_(bf.and_(x, y), z)
        assert len(nested.children) == 3

    def test_dedup(self):
        x, y = bf.var(1), bf.var(2)
        assert bf.and_(x, y, x) is bf.and_(x, y)

    def test_complement_law(self):
        x = bf.var(1)
        assert bf.and_(x, bf.not_(x)) is bf.FALSE
        assert bf.or_(x, bf.not_(x)) is bf.TRUE

    def test_single_operand_collapse(self):
        x = bf.var(1)
        assert bf.and_(x) is x


class TestXor:
    def test_constant_folding(self):
        x = bf.var(1)
        assert bf.xor(x, bf.FALSE) is x
        assert bf.xor(x, bf.TRUE) is bf.not_(x)

    def test_self_cancellation(self):
        x = bf.var(1)
        assert bf.xor(x, x) is bf.FALSE

    def test_negation_lifting(self):
        x, y = bf.var(1), bf.var(2)
        assert bf.xor(bf.not_(x), y) is bf.not_(bf.xor(x, y))

    def test_empty_xor(self):
        assert bf.xor() is bf.FALSE


class TestIteIff:
    def test_ite_constant_condition(self):
        t, e = bf.var(1), bf.var(2)
        assert bf.ite(bf.TRUE, t, e) is t
        assert bf.ite(bf.FALSE, t, e) is e

    def test_ite_same_branches(self):
        x, t = bf.var(1), bf.var(2)
        assert bf.ite(x, t, t) is t

    def test_iff_truth_table(self):
        x, y = bf.var(1), bf.var(2)
        expr = bf.iff(x, y)
        assert expr.evaluate({1: True, 2: True})
        assert expr.evaluate({1: False, 2: False})
        assert not expr.evaluate({1: True, 2: False})


class TestQueries:
    def test_support(self):
        expr = bf.and_(bf.var(1), bf.or_(bf.var(2), bf.not_(bf.var(5))))
        assert expr.support() == {1, 2, 5}

    def test_dag_size_shares_nodes(self):
        shared = bf.and_(bf.var(1), bf.var(2))
        expr = bf.xor(shared, bf.or_(shared, bf.var(3)))
        # xor, or, and (shared counted once), three vars
        assert expr.dag_size() == 6

    def test_depth(self):
        x, y = bf.var(1), bf.var(2)
        assert bf.var(1).depth() == 0
        assert bf.and_(x, bf.or_(y, x)).depth() == 2

    def test_is_literal(self):
        assert bf.var(1).is_literal()
        assert bf.not_(bf.var(1)).is_literal()
        assert not bf.and_(bf.var(1), bf.var(2)).is_literal()


class TestSubstitute:
    def test_simple(self):
        expr = bf.and_(bf.var(1), bf.var(2))
        out = expr.substitute({2: bf.TRUE})
        assert out is bf.var(1)

    def test_simultaneous(self):
        x, y = bf.var(1), bf.var(2)
        expr = bf.xor(x, y)
        # swap: must not cascade
        out = expr.substitute({1: y, 2: x})
        assert out is expr

    def test_cofactor(self):
        expr = bf.or_(bf.var(1), bf.var(2))
        assert expr.cofactor(1, True) is bf.TRUE
        assert expr.cofactor(1, False) is bf.var(2)

    def test_empty_mapping_is_identity(self):
        expr = bf.and_(bf.var(1), bf.var(2))
        assert expr.substitute({}) is expr


class TestHelpers:
    def test_cube(self):
        c = bf.cube([1, -2])
        assert c.evaluate({1: True, 2: False})
        assert not c.evaluate({1: True, 2: True})

    def test_clause_expr(self):
        c = bf.clause_expr([1, -2])
        assert c.evaluate({1: False, 2: False})
        assert not c.evaluate({1: False, 2: True})

    def test_cnf_to_expr(self):
        from repro.formula.cnf import CNF

        cnf = CNF([[1, 2], [-1]])
        expr = bf.cnf_to_expr(cnf)
        assert expr.evaluate({1: False, 2: True})
        assert not expr.evaluate({1: True, 2: True})

    def test_to_infix_smoke(self):
        expr = bf.or_(bf.and_(bf.var(1), bf.not_(bf.var(2))), bf.var(3))
        text = expr.to_infix()
        assert "v1" in text and "~v2" in text


# ----------------------------------------------------------------------
# property-based: random expressions evaluate consistently
# ----------------------------------------------------------------------
@st.composite
def expressions(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        choice = draw(st.integers(min_value=0, max_value=5))
        if choice == 0:
            return bf.TRUE
        if choice == 1:
            return bf.FALSE
        return bf.var(choice - 1 if choice > 2 else choice)
    op = draw(st.sampled_from(["and", "or", "xor", "not"]))
    if op == "not":
        return bf.not_(draw(expressions(depth=depth - 1)))
    args = draw(st.lists(expressions(depth=depth - 1), min_size=1,
                         max_size=3))
    return {"and": bf.and_, "or": bf.or_, "xor": bf.xor}[op](*args)


@given(expressions(), st.lists(st.booleans(), min_size=5, max_size=5))
def test_substitute_constant_matches_evaluate(expr, bits):
    """Property: substituting all variables with constants folds to the
    same constant evaluate() computes."""
    env = {v: bits[v - 1] for v in range(1, 6)}
    mapping = {v: bf.const(env[v]) for v in expr.support()}
    folded = expr.substitute(mapping)
    assert folded.is_const()
    assert folded.payload == expr.evaluate(env)


@given(expressions(), expressions(),
       st.lists(st.booleans(), min_size=5, max_size=5))
def test_demorgan_holds(a, b, bits):
    env = {v: bits[v - 1] for v in range(1, 6)}
    lhs = bf.not_(bf.and_(a, b))
    rhs = bf.or_(bf.not_(a), bf.not_(b))
    assert lhs.evaluate(env) == rhs.evaluate(env)


class TestWeakInterning:
    def test_table_returns_to_base_size_after_distinct_solves(self):
        """The hash-consing table holds nodes weakly: once a solve's
        results are dropped, its nodes leave the table."""
        import gc

        from repro.benchgen import generate_planted_instance
        from repro.core import Manthan3, Manthan3Config

        gc.collect()
        base = len(bf._INTERN)
        for seed in (11, 12, 14, 16):
            inst = generate_planted_instance(
                num_universals=14, num_existentials=3, dep_width=12,
                region_width=3, rules_per_y=4, seed=seed)
            result = Manthan3(Manthan3Config(seed=9)).run(inst, timeout=60)
            assert result.synthesized
            assert len(bf._INTERN) > base
            del inst, result
            gc.collect()
            assert len(bf._INTERN) == base
