"""Rule predicate language: parsing and printing.

Grammar (AND binds tighter than OR, no parentheses):

    expr   := clause (("AND" | "OR") clause)*
    clause := ["NOT"] atom cmp number
            | ["NOT"] atom "IN" number ".." number
    cmp    := "<" | "<=" | ">" | ">=" | "="

Atoms come from the fixed vocabulary in kinematics.ATOMS. Keywords are
case-insensitive; "<=" / ">=" may also be written "≤" / "≥". The printer
emits a canonical ASCII form that parses back to an identical tree.
Predicates are evaluated over a column table by rules.FeatureTable.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from .errors import NonFiniteLiteralError, PredicateSyntaxError, UnknownAtomError
from .kinematics import ATOMS

COMPARATORS = ("<", "<=", ">", ">=", "=")


@dataclass(frozen=True)
class Comparison:
    atom: str
    op: str
    value: float


@dataclass(frozen=True)
class RangeTest:
    atom: str
    lo: float
    hi: float


@dataclass(frozen=True)
class Not:
    child: "Predicate"


@dataclass(frozen=True)
class And:
    children: tuple["Predicate", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Predicate", ...]


Predicate = Union[Comparison, RangeTest, Not, And, Or]


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "number", "cmp", "range", "end"
    text: str
    pos: int


# the (?!\.) lookahead keeps integer range bounds from eating the ".." separator
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>[-+]?(?:\d+(?:\.(?!\.)\d*)?|\.\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<range>\.\.)"
    r"|(?P<cmp><=|>=|≤|≥|<|>|=)"
    r")"
)

_UNICODE_CMP = {"≤": "<=", "≥": ">="}


def _scan(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None or m.end() == i:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            pos = len(text) - len(stripped)
            raise PredicateSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        pos = m.end() - len(m.group(0).lstrip())
        if m.lastgroup == "cmp":
            op = _UNICODE_CMP.get(m.group("cmp"), m.group("cmp"))
            tokens.append(_Token("cmp", op, pos))
        else:
            tokens.append(_Token(m.lastgroup, m.group(m.lastgroup), pos))
        i = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _scan(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.kind == "ident" and tok.text.upper() == word:
            self.i += 1
            return True
        return False

    def number(self, what: str) -> float:
        tok = self.take()
        if tok.kind != "number":
            raise PredicateSyntaxError(f"expected {what}, got {tok.text or 'end of input'!r}", tok.pos)
        value = float(tok.text)
        if not math.isfinite(value):
            raise NonFiniteLiteralError(f"literal {tok.text!r} is not finite", tok.pos)
        return value

    def expr(self) -> Predicate:
        branches = [self.conjunction()]
        while self.keyword("OR"):
            branches.append(self.conjunction())
        return branches[0] if len(branches) == 1 else Or(tuple(branches))

    def conjunction(self) -> Predicate:
        terms = [self.clause()]
        while self.keyword("AND"):
            terms.append(self.clause())
        return terms[0] if len(terms) == 1 else And(tuple(terms))

    def clause(self) -> Predicate:
        negated = self.keyword("NOT")
        tok = self.take()
        if tok.kind != "ident":
            raise PredicateSyntaxError(f"expected feature atom, got {tok.text or 'end of input'!r}", tok.pos)
        atom = tok.text.lower()
        if atom not in ATOMS:
            raise UnknownAtomError(f"unknown feature atom {tok.text!r}", tok.pos)
        nxt = self.take()
        if nxt.kind == "cmp":
            node: Predicate = Comparison(atom, nxt.text, self.number("number"))
        elif nxt.kind == "ident" and nxt.text.upper() == "IN":
            lo = self.number("range lower bound")
            sep = self.take()
            if sep.kind != "range":
                raise PredicateSyntaxError(f"expected '..', got {sep.text or 'end of input'!r}", sep.pos)
            hi = self.number("range upper bound")
            if lo > hi:
                raise PredicateSyntaxError(f"range bounds out of order: {lo} > {hi}", sep.pos)
            node = RangeTest(atom, lo, hi)
        else:
            raise PredicateSyntaxError(
                f"expected comparator or IN after {atom!r}, got {nxt.text or 'end of input'!r}", nxt.pos
            )
        return Not(node) if negated else node


def parse_predicate(text: str) -> Predicate:
    """Parse DSL text into a predicate tree.

    Raises PredicateSyntaxError (with character position), UnknownAtomError,
    or NonFiniteLiteralError.
    """
    parser = _Parser(text)
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise PredicateSyntaxError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    return node


def _format_number(value: float) -> str:
    return repr(float(value))


def to_dsl(pred: Predicate) -> str:
    """Render a predicate tree back to canonical DSL text.

    Only trees expressible in the grammar are printable; a NOT wrapping an
    AND/OR (constructible programmatically) raises ValueError.
    """
    if isinstance(pred, Comparison):
        return f"{pred.atom} {pred.op} {_format_number(pred.value)}"
    if isinstance(pred, RangeTest):
        return f"{pred.atom} IN {_format_number(pred.lo)}..{_format_number(pred.hi)}"
    if isinstance(pred, Not):
        if not isinstance(pred.child, (Comparison, RangeTest)):
            raise ValueError("NOT over a compound expression is not printable in the DSL")
        return f"NOT {to_dsl(pred.child)}"
    if isinstance(pred, And):
        for child in pred.children:
            if isinstance(child, (And, Or)):
                raise ValueError("nested AND/OR inside AND is not printable in the DSL")
        return " AND ".join(to_dsl(c) for c in pred.children)
    if isinstance(pred, Or):
        for child in pred.children:
            if isinstance(child, Or):
                raise ValueError("OR nested inside OR is not printable in the DSL")
        return " OR ".join(to_dsl(c) for c in pred.children)
    raise TypeError(f"not a predicate node: {pred!r}")


def required_atoms(pred: Predicate) -> frozenset[str]:
    """All atoms the predicate reads; any of them missing makes a rule not applicable."""
    if isinstance(pred, (Comparison, RangeTest)):
        return frozenset({pred.atom})
    if isinstance(pred, Not):
        return required_atoms(pred.child)
    if isinstance(pred, (And, Or)):
        atoms: frozenset[str] = frozenset()
        for child in pred.children:
            atoms |= required_atoms(child)
        return atoms
    raise TypeError(f"not a predicate node: {pred!r}")

