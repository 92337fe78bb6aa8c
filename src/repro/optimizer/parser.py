"""A concrete syntax for logical plans.

Lets examples, tests and the CLI write plans as text:

.. code-block:: text

    plan    ::= binary
    binary  ::= unary (('U' | '-' | '&' | 'x') unary)*     left-assoc
    unary   ::= 'pi' '[' cols ']' '(' plan ')'
              | 'sigma' '[' NAME cmp VALUE ']' '(' plan ')'
              | '(' plan ')'
              | IDENT                                       scan
    cols    ::= INT (',' INT)*                              1-based
    cmp     ::= '=' | '<' | '>'

Selections reference columns by 1-based ``$i``; operands are integer
or quoted-string literals, or another column ``$j``.  A selection's
text (``$1>1010``) names its predicate.  Every parse builds fresh
predicate objects, and the result cache keys callables by object, so a
plan parsed twice misses the cache the second time.

Examples::

    parse_plan("pi[1](employees - students)")
    parse_plan("sigma[$1=1001](employees) U students")
"""

from __future__ import annotations

import re
from operator import eq, gt, lt
from typing import Callable

from ..types.values import Tup
from .plan import Difference, Intersect, Plan, Product, Project, Scan, Select, Union

__all__ = ["parse_plan", "PlanParseError"]


class PlanParseError(Exception):
    """Raised on malformed plan text."""


_COMPARATORS = {"EQ": eq, "LT": lt, "GT": gt}


_TOKEN_RE = re.compile(
    r"""
    (?P<PI>pi\b)
  | (?P<SIGMA>sigma\b)
  | (?P<UNION>U\b)
  | (?P<CROSS>x\b)
  | (?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<NUMBER>-?\d+)
  | (?P<STRING>'[^']*')
  | (?P<DOLLAR>\$)
  | (?P<LBRACK>\[)
  | (?P<RBRACK>\])
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<MINUS>-)
  | (?P<AMP>&)
  | (?P<EQ>=)
  | (?P<LT><)
  | (?P<GT>>)
  | (?P<WS>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise PlanParseError(f"bad character {text[pos]!r} at {pos}")
        if match.lastgroup != "WS":
            yield match.lastgroup, match.group()
        pos = match.end()
    yield "EOF", ""


class _Parser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = list(_tokenize(text))
        self._pos = 0

    def _peek(self):
        return self._tokens[self._pos]

    def _advance(self):
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind: str) -> str:
        got, value = self._advance()
        if got != kind:
            raise PlanParseError(
                f"expected {kind}, got {got} ({value!r}) in {self._text!r}"
            )
        return value

    def parse(self) -> Plan:
        plan = self._binary()
        self._expect("EOF")
        return plan

    def _binary(self) -> Plan:
        left = self._unary()
        constructors = {
            "UNION": Union,
            "MINUS": Difference,
            "AMP": Intersect,
            "CROSS": Product,
        }
        while self._peek()[0] in constructors:
            kind, _ = self._advance()
            right = self._unary()
            left = constructors[kind](left, right)
        return left

    def _unary(self) -> Plan:
        kind, value = self._peek()
        if kind == "PI":
            self._advance()
            self._expect("LBRACK")
            columns = [int(self._expect("NUMBER")) - 1]
            while self._peek()[0] == "COMMA":
                self._advance()
                columns.append(int(self._expect("NUMBER")) - 1)
            self._expect("RBRACK")
            self._expect("LPAREN")
            child = self._binary()
            self._expect("RPAREN")
            if any(c < 0 for c in columns):
                raise PlanParseError("projection columns are 1-based")
            return Project(tuple(columns), child)
        if kind == "SIGMA":
            self._advance()
            self._expect("LBRACK")
            predicate_name, predicate = self._predicate()
            self._expect("RBRACK")
            self._expect("LPAREN")
            child = self._binary()
            self._expect("RPAREN")
            return Select(predicate_name, predicate, child)
        if kind == "LPAREN":
            self._advance()
            plan = self._binary()
            self._expect("RPAREN")
            return plan
        if kind == "IDENT":
            self._advance()
            return Scan(value)
        raise PlanParseError(f"unexpected token {value!r} in {self._text!r}")

    def _predicate(self) -> tuple[str, Callable[[Tup], bool]]:
        self._expect("DOLLAR")
        column = int(self._expect("NUMBER")) - 1
        if column < 0:
            raise PlanParseError("selection columns are 1-based")
        op_kind, op_text = self._advance()
        compare = _COMPARATORS.get(op_kind)
        if compare is None:
            raise PlanParseError(f"unknown comparator {op_text!r}")
        kind, value = self._advance()
        if kind == "DOLLAR":
            other = int(self._expect("NUMBER")) - 1
            name = f"${column + 1}{op_text}${other + 1}"
            predicate = lambda t: compare(t[column], t[other])
        elif kind in ("NUMBER", "STRING"):
            literal = int(value) if kind == "NUMBER" else value[1:-1]
            name = f"${column + 1}{op_text}{value}"
            predicate = lambda t: compare(t[column], literal)
        else:
            raise PlanParseError(f"bad literal {value!r}")
        return name, predicate


def parse_plan(text: str) -> Plan:
    """Parse a plan from its concrete syntax; text nested deeper than
    the recursion limit allows raises :class:`PlanParseError`."""
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise PlanParseError("plan nested too deeply") from None
