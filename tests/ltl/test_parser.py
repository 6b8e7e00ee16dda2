"""Unit tests for the LTL parser (and its round trip with the printer)."""

import pytest
from hypothesis import given, settings

from repro.errors import LTLSyntaxError, ParseError
from repro.ltl import ast as A
from repro.ltl.parser import MAX_NESTING, parse, parse_clauses, tokenize
from repro.ltl.printer import format_formula

from ..strategies import formulas


class TestAtoms:
    def test_proposition(self):
        assert parse("purchase") == A.Prop("purchase")

    def test_true_false(self):
        assert parse("true") == A.TRUE
        assert parse("false") == A.FALSE

    def test_parenthesized(self):
        assert parse("((p))") == A.Prop("p")


class TestOperators:
    def test_not(self):
        assert parse("!p") == A.Not(A.Prop("p"))
        assert parse("~p") == A.Not(A.Prop("p"))

    def test_double_negation_kept(self):
        assert parse("!!p") == A.Not(A.Not(A.Prop("p")))

    def test_and_both_spellings(self):
        expected = A.And(A.Prop("p"), A.Prop("q"))
        assert parse("p && q") == expected
        assert parse("p & q") == expected

    def test_or_both_spellings(self):
        expected = A.Or(A.Prop("p"), A.Prop("q"))
        assert parse("p || q") == expected
        assert parse("p | q") == expected

    def test_implies(self):
        assert parse("p -> q") == A.Implies(A.Prop("p"), A.Prop("q"))

    def test_iff(self):
        assert parse("p <-> q") == A.Iff(A.Prop("p"), A.Prop("q"))

    def test_unary_temporal(self):
        assert parse("X p") == A.Next(A.Prop("p"))
        assert parse("F p") == A.Finally(A.Prop("p"))
        assert parse("G p") == A.Globally(A.Prop("p"))

    def test_binary_temporal(self):
        assert parse("p U q") == A.Until(A.Prop("p"), A.Prop("q"))
        assert parse("p W q") == A.WeakUntil(A.Prop("p"), A.Prop("q"))
        assert parse("p B q") == A.Before(A.Prop("p"), A.Prop("q"))
        assert parse("p R q") == A.Release(A.Prop("p"), A.Prop("q"))


class TestPrecedence:
    def test_and_binds_tighter_than_or(self):
        assert parse("a || b && c") == A.Or(
            A.Prop("a"), A.And(A.Prop("b"), A.Prop("c"))
        )

    def test_temporal_binds_tighter_than_and(self):
        assert parse("a && b U c") == A.And(
            A.Prop("a"), A.Until(A.Prop("b"), A.Prop("c"))
        )

    def test_unary_binds_tighter_than_until(self):
        assert parse("!a U X b") == A.Until(
            A.Not(A.Prop("a")), A.Next(A.Prop("b"))
        )

    def test_implies_is_right_associative(self):
        assert parse("a -> b -> c") == A.Implies(
            A.Prop("a"), A.Implies(A.Prop("b"), A.Prop("c"))
        )

    def test_until_is_left_associative(self):
        assert parse("a U b U c") == A.Until(
            A.Until(A.Prop("a"), A.Prop("b")), A.Prop("c")
        )

    def test_implies_looser_than_or(self):
        assert parse("a || b -> c") == A.Implies(
            A.Or(A.Prop("a"), A.Prop("b")), A.Prop("c")
        )

    def test_paper_clause(self):
        # Ticket A's clause from §2.2.
        f = parse("G(dateChange -> !F refund)")
        assert f == A.Globally(
            A.Implies(
                A.Prop("dateChange"), A.Not(A.Finally(A.Prop("refund")))
            )
        )


class TestErrors:
    def test_empty_input(self):
        with pytest.raises(LTLSyntaxError):
            parse("")

    def test_unexpected_character(self):
        with pytest.raises(LTLSyntaxError) as info:
            parse("p @ q")
        assert info.value.position == 2

    def test_unbalanced_paren(self):
        with pytest.raises(LTLSyntaxError):
            parse("(p && q")

    def test_trailing_garbage(self):
        with pytest.raises(LTLSyntaxError):
            parse("p q")

    def test_reserved_word_as_proposition(self):
        with pytest.raises(LTLSyntaxError):
            parse("X && p")

    def test_missing_operand(self):
        with pytest.raises(LTLSyntaxError):
            parse("p &&")

    def test_error_str_mentions_offset(self):
        with pytest.raises(LTLSyntaxError) as info:
            parse("p @")
        assert "offset" in str(info.value)


class TestTokenize:
    def test_skips_whitespace(self):
        kinds = [t.kind for t in tokenize("  p   &&\tq ")]
        assert kinds == ["ident", "and", "ident"]

    def test_positions(self):
        tokens = tokenize("p && q")
        assert [t.position for t in tokens] == [0, 2, 5]


class TestParseClauses:
    def test_conjunction_of_clauses(self):
        f = parse_clauses(["G p", "F q"])
        assert f == A.And(parse("G p"), parse("F q"))

    def test_empty_clause_list_is_true(self):
        assert parse_clauses([]) == A.TRUE


class TestRoundTrip:
    @given(formulas())
    @settings(max_examples=300, deadline=None)
    def test_parse_of_print_is_identity(self, formula):
        assert parse(format_formula(formula)) == formula


class TestNestingCap:
    """Input nesting past MAX_NESTING is a typed ParseError, never a
    RecursionError; everything at the cap runs the whole pipeline."""

    SHAPES = {
        "parentheses": lambda k: "(" * k + "a" + ")" * k,
        "unary chain": lambda k: "!" * k + "a",
        "temporal chain": lambda k: "X " * k + "a",
        "binary chain": lambda k: "a" + " && b" * k,
        "implication chain": lambda k: "a" + " -> b" * k,
        # alternating precedence: the printer must parenthesize every level
        "alternating": lambda k: "a" + "".join(
            f" {'&&' if i % 2 else '||'} (b" for i in range(k - 1)
        ) + " && c" + ")" * (k - 1),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_accepted_at_cap_runs_end_to_end(self, shape):
        from repro.automata.ltl2ba import translate
        from repro.broker.database import ContractDatabase
        from repro.ltl.rewrite import simplify

        text = self.SHAPES[shape](MAX_NESTING)
        formula = parse(text)
        assert parse(format_formula(formula)) == formula
        simplify(formula)
        translate(formula)
        db = ContractDatabase()
        db.register("c", [text])
        db.query(text)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_rejected_past_cap_with_position(self, shape):
        text = self.SHAPES[shape](MAX_NESTING + 1)
        with pytest.raises(ParseError) as info:
            parse(text)
        assert 0 <= info.value.position < len(text)
        assert isinstance(info.value, LTLSyntaxError)

    @pytest.mark.parametrize("text", [
        "(" * 200 + "a" + ")" * 200,
        "!" * 1000 + "a",
        "a" + " U b" * 5000,
        "(" * 100_000,
    ])
    def test_hostile_depth_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse(text)
