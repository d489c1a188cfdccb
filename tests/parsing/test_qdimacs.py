"""Tests for the QDIMACS reader/writer."""

import pytest

from repro.parsing import parse_qdimacs, write_qdimacs
from repro.utils.errors import ParseError

TWO_QBF = """p cnf 4 2
a 1 2 0
e 3 4 0
1 3 0
-2 4 0
"""


class TestParse:
    def test_skolem_shape(self):
        inst = parse_qdimacs(TWO_QBF)
        assert inst.is_skolem()
        assert inst.dependencies[3] == frozenset({1, 2})

    def test_alternation(self):
        text = "p cnf 3 1\na 1 0\ne 2 0\na 3 0\n1 2 3 0\n"
        inst = parse_qdimacs(text)
        assert inst.dependencies[2] == frozenset({1})
        assert inst.universals == [1, 3]

    def test_leading_existentials_have_no_deps(self):
        text = "p cnf 2 1\ne 1 0\na 2 0\n1 2 0\n"
        inst = parse_qdimacs(text)
        assert inst.dependencies[1] == frozenset()

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_qdimacs("1 0\n")
        with pytest.raises(ParseError):
            parse_qdimacs("p cnf 1 1\n1\n")
        with pytest.raises(ParseError):
            parse_qdimacs("p cnf 1 2\n1 0\n")

    @pytest.mark.parametrize("text, message", [
        ("p cnf 2 1\ne 1 0\n1 5 0\n", "out of range"),
        ("p cnf 3 1\na 1 0\n1 2 0\ne 2 0\n", "after first clause"),
        ("p cnf 2 1\np cnf 2 1\na 1 0\ne 2 0\n1 2 0\n",
         "duplicate 'p' header"),
        ("p cnf 2 1\na 1 0\ne 2 0\n1 x 0\n", "non-integer"),
        ("p cnf 2 1\na 1 0\nd 2 1 0\n1 2 0\n", "'d' line"),
    ], ids=["var-above-count", "prefix-after-clause", "second-header",
            "non-integer-token", "d-line"])
    def test_malformed_input_is_a_parse_error(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_qdimacs(text)


class TestWrite:
    def test_roundtrip_two_qbf(self):
        inst = parse_qdimacs(TWO_QBF)
        text = write_qdimacs(inst)
        again = parse_qdimacs(text)
        assert again.dependencies == inst.dependencies
        assert list(again.matrix) == list(inst.matrix)

    def test_rejects_non_linear_instance(self):
        from repro.parsing import parse_dqdimacs

        dqbf = parse_dqdimacs(
            "p cnf 4 1\na 1 2 0\nd 3 1 0\nd 4 2 0\n3 4 0\n")
        with pytest.raises(ParseError):
            write_qdimacs(dqbf)

    def test_chain_instance_writes(self):
        from repro.parsing import parse_dqdimacs

        dqbf = parse_dqdimacs(
            "p cnf 4 1\na 1 2 0\nd 3 1 0\nd 4 1 2 0\n3 4 0\n")
        text = write_qdimacs(dqbf)
        again = parse_qdimacs(text)
        assert again.dependencies == dqbf.dependencies
