"""Recursive-descent parser for the LTL surface syntax.

Grammar (loosest to tightest precedence)::

    iff      := implies ( '<->' implies )*
    implies  := or ( '->' implies )?          # right associative
    or       := and ( ('||' | '|') and )*
    and      := temporal ( ('&&' | '&') temporal )*
    temporal := unary ( ('U'|'W'|'B'|'R') unary )*   # left associative
    unary    := ('!'|'~'|'X'|'F'|'G') unary | atom
    atom     := 'true' | 'false' | IDENT | '(' iff ')'

``X``, ``F``, ``G``, ``U``, ``W``, ``B``, ``R``, ``true`` and ``false`` are
reserved words; every other identifier (``[A-Za-z_][A-Za-z0-9_]*``) is an
event variable.  This mirrors the paper's notation, e.g.::

    parse("G(dateChange -> !F refund)")          # Ticket A, §2.2
    parse("G(missedFlight -> !F dateChange)")    # Ticket B / C
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import LTLSyntaxError, ParseError
from . import ast as A

#: Deepest accepted nesting, applied both to the operators on any
#: root-to-atom path and to parenthesis groups open at once.  Every
#: formula within it parses, prints, simplifies, translates and is
#: queried under Python's default recursion limit; deeper input raises
#: :class:`ParseError` instead of ``RecursionError``.
MAX_NESTING = 64

_RESERVED_UNARY = {"X": A.Next, "F": A.Finally, "G": A.Globally}
_RESERVED_BINARY = {"U": A.Until, "W": A.WeakUntil, "B": A.Before, "R": A.Release}
_RESERVED_CONST = {"true": A.TRUE, "false": A.FALSE}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<iff><->)
  | (?P<arrow>->)
  | (?P<and>&&|&)
  | (?P<or>\|\||\|)
  | (?P<not>!|~)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def tokenize(text: str) -> list[_Token]:
    """Split ``text`` into tokens; raises :class:`LTLSyntaxError` on any
    character outside the grammar."""
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise LTLSyntaxError(
                f"unexpected character {text[pos]!r}", text=text, position=pos
            )
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    """Single-use recursive-descent parser over a token list.

    Every grammar method returns the parsed formula with its height: the
    number of operators on its deepest root-to-atom path.  Input is
    capped at :data:`MAX_NESTING` two ways, both raising
    :class:`ParseError` at the offending token: the height (unary and
    binary chains alike) and the number of parenthesis groups open at
    once.  ``_ops`` counts the unary and ``->`` operators whose operand
    is being parsed — all on one path, so a lower bound on the final
    height — which stops a long chain before the recursion could
    overflow; binary chains are loops and are checked as they grow.
    The printer only emits parentheses around operators, so a printed
    accepted formula is accepted again.
    """

    def __init__(self, text: str):
        self._text = text
        self._tokens = tokenize(text)
        self._index = 0
        self._ops = 0
        self._groups = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _advance(self) -> _Token:
        token = self._peek()
        if token is None:
            raise LTLSyntaxError(
                "unexpected end of input", text=self._text, position=len(self._text)
            )
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token is None or token.kind != kind:
            found = token.text if token else "end of input"
            position = token.position if token else len(self._text)
            raise LTLSyntaxError(
                f"expected {kind}, found {found!r}", text=self._text, position=position
            )
        return self._advance()

    def _too_deep(self, token: _Token) -> ParseError:
        return ParseError(
            f"formula nests deeper than {MAX_NESTING} levels",
            text=self._text,
            position=token.position,
        )

    def _binary(self, ctor, left, right, token: _Token) -> tuple[A.Formula, int]:
        height = max(left[1], right[1]) + 1
        if height > MAX_NESTING:
            raise self._too_deep(token)
        return ctor(left[0], right[0]), height

    # -- grammar ------------------------------------------------------------

    def parse(self) -> A.Formula:
        formula, _ = self._iff()
        trailing = self._peek()
        if trailing is not None:
            raise LTLSyntaxError(
                f"unexpected trailing input {trailing.text!r}",
                text=self._text,
                position=trailing.position,
            )
        return formula

    def _iff(self) -> tuple[A.Formula, int]:
        left = self._implies()
        while self._peek_kind() == "iff":
            token = self._advance()
            left = self._binary(A.Iff, left, self._implies(), token)
        return left

    def _implies(self) -> tuple[A.Formula, int]:
        left = self._or()
        if self._peek_kind() == "arrow":
            token = self._advance()
            self._ops += 1
            if self._ops > MAX_NESTING:
                raise self._too_deep(token)
            right = self._implies()  # right associative
            self._ops -= 1
            return self._binary(A.Implies, left, right, token)
        return left

    def _or(self) -> tuple[A.Formula, int]:
        left = self._and()
        while self._peek_kind() == "or":
            token = self._advance()
            left = self._binary(A.Or, left, self._and(), token)
        return left

    def _and(self) -> tuple[A.Formula, int]:
        left = self._temporal()
        while self._peek_kind() == "and":
            token = self._advance()
            left = self._binary(A.And, left, self._temporal(), token)
        return left

    def _temporal(self) -> tuple[A.Formula, int]:
        left = self._unary()
        while True:
            token = self._peek()
            if token is None or token.kind != "ident":
                return left
            ctor = _RESERVED_BINARY.get(token.text)
            if ctor is None:
                raise LTLSyntaxError(
                    f"unexpected identifier {token.text!r} "
                    "(missing operator before it?)",
                    text=self._text,
                    position=token.position,
                )
            self._advance()
            left = self._binary(ctor, left, self._unary(), token)

    def _unary(self) -> tuple[A.Formula, int]:
        token = self._peek()
        if token is None:
            raise LTLSyntaxError(
                "unexpected end of input", text=self._text, position=len(self._text)
            )
        if token.kind == "not":
            ctor = A.Not
        elif token.kind == "ident" and token.text in _RESERVED_UNARY:
            ctor = _RESERVED_UNARY[token.text]
        else:
            return self._atom()
        self._advance()
        self._ops += 1
        if self._ops > MAX_NESTING:
            raise self._too_deep(token)
        operand, height = self._unary()
        self._ops -= 1
        if height >= MAX_NESTING:
            raise self._too_deep(token)
        return ctor(operand), height + 1

    def _atom(self) -> tuple[A.Formula, int]:
        token = self._advance()
        if token.kind == "lparen":
            self._groups += 1
            if self._groups > MAX_NESTING:
                raise self._too_deep(token)
            inner = self._iff()
            self._expect("rparen")
            self._groups -= 1
            return inner
        if token.kind == "ident":
            if token.text in _RESERVED_CONST:
                return _RESERVED_CONST[token.text], 0
            if token.text in _RESERVED_BINARY or token.text in _RESERVED_UNARY:
                raise LTLSyntaxError(
                    f"reserved word {token.text!r} used as a proposition",
                    text=self._text,
                    position=token.position,
                )
            return A.Prop(token.text), 0
        raise LTLSyntaxError(
            f"unexpected token {token.text!r}", text=self._text, position=token.position
        )

    def _peek_kind(self) -> str | None:
        # inlined _peek: this runs once per grammar level per operand
        if self._index < len(self._tokens):
            return self._tokens[self._index].kind
        return None


def parse(text: str) -> A.Formula:
    """Parse an LTL formula from its textual form.

    >>> parse("G(dateChange -> !F refund)")
    Globally('G (dateChange -> !F refund)')
    """
    return _Parser(text).parse()


def parse_clauses(texts: list[str]) -> A.Formula:
    """Parse a list of clause strings and return their conjunction.

    Contracts in the paper are specified as *sets* of declarative clauses
    whose semantics is the conjunction of all of them (§2, Example 5).
    """
    return A.conj([parse(t) for t in texts])
