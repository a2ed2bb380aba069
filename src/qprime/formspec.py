"""Mini-grammar for naming forms on the command line.

A specification is a signed sum of terms; each term is an optional
rational scalar, an optional derivative operator, and one atom:

    atom   := G<k> | H<k> | DELTA | S<m>.<i>
    term   := [number ["*"]] [D | D^j] atom | number
    spec   := ["+"|"-"] term (("+"|"-") term)*

Whitespace is ignored everywhere, so "3/2D^2G4" and "3/2 * D^2 G4" name
the same object.  A bare number is a constant term.  Weights are at
most forms.MAX_WEIGHT and the derivative order of a term at most
forms.MAX_ORDER.  Errors carry the offset into the input at which
parsing failed.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .forms import MAX_ORDER, MAX_WEIGHT, QuasiForm, cusp_dim, hk_quasiform

__all__ = ["FormSpecError", "parse_form_spec"]


class FormSpecError(ValueError):
    """Parse failure; position is a character offset into the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


# longest/most-specific first: DELTA must win over the D operator
_TOKEN_PATTERNS = (
    ("DELTA", re.compile(r"DELTA")),
    ("S", re.compile(r"S(\d+)\.(\d+)")),
    ("G", re.compile(r"G(\d+)")),
    ("H", re.compile(r"H(\d+)")),
    ("D", re.compile(r"D(?:\^(\d+))?")),
    ("NUM", re.compile(r"\d+(?:/\d+)?")),
    ("PLUS", re.compile(r"\+")),
    ("MINUS", re.compile(r"-")),
    ("STAR", re.compile(r"\*")),
)


_Token = namedtuple("_Token", "kind text groups pos")


def _at_most(digits: str, maximum: int) -> int | None:
    """The value of a numeral, or None when it exceeds maximum.

    Lengths are compared first, so a numeral past the interpreter's
    int/str digit limit never reaches int().
    """
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(maximum)) or int(digits) > maximum:
        return None
    return int(digits)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        for kind, pattern in _TOKEN_PATTERNS:
            match = pattern.match(text, pos)
            if match:
                tokens.append(_Token(kind, match.group(0), match.groups(), pos))
                pos = match.end()
                break
        else:
            raise FormSpecError(f"unexpected character {text[pos]!r}", pos)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], length: int):
        self.tokens = tokens
        self.length = length
        self.index = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def parse(self) -> QuasiForm:
        if not self.tokens:
            raise FormSpecError("empty form specification", 0)
        total = self._term(self._sign(optional=True))
        while self.peek() is not None:
            total = total + self._term(self._sign(optional=False))
        return total

    def _sign(self, optional: bool) -> int:
        token = self.peek()
        if token is not None and token.kind in ("PLUS", "MINUS"):
            self.take()
            return -1 if token.kind == "MINUS" else 1
        if optional:
            return 1
        where = token.pos if token is not None else self.length
        raise FormSpecError("expected '+' or '-' between terms", where)

    def _term(self, sign: int) -> QuasiForm:
        coeff = Fraction(sign)
        token = self.peek()
        if token is not None and token.kind == "NUM":
            self.take()
            try:
                coeff *= Fraction(token.text)
            except ZeroDivisionError:
                raise FormSpecError("zero denominator", token.pos) from None
            except ValueError:
                # int() refuses a numeral past the interpreter's int/str digit limit
                raise FormSpecError(
                    f"number of {len(token.text)} characters exceeds the interpreter's "
                    "integer digit limit",
                    token.pos,
                ) from None
            nxt = self.peek()
            if nxt is not None and nxt.kind == "STAR":
                self.take()
                nxt = self.peek()
            if nxt is None or nxt.kind in ("PLUS", "MINUS"):
                return QuasiForm.constant(coeff)
        order = 0
        token = self.peek()
        if token is not None and token.kind == "D":
            self.take()
            order = 1 if token.groups[0] is None else _at_most(token.groups[0], MAX_ORDER)
            if order is None:
                raise FormSpecError(
                    f"{token.text}: derivative order exceeds the maximum {MAX_ORDER}", token.pos
                )
        form = self._atom()
        if order:
            # H_k already carries D^2, and the bound is on the whole order
            total = order + max(key[-1] for key in (*form.eis, *form.cusp))
            if total > MAX_ORDER:
                raise FormSpecError(
                    f"derivative order {total} exceeds the maximum {MAX_ORDER}", token.pos
                )
            form = form.derivative(order)
        return coeff * form

    def _atom(self) -> QuasiForm:
        token = self.peek()
        if token is None:
            raise FormSpecError("expected a form term", self.length)
        if token.kind in ("G", "H", "S"):
            weight = _at_most(token.groups[0], MAX_WEIGHT)
            if weight is None:
                raise FormSpecError(
                    f"{token.text}: weight exceeds the maximum {MAX_WEIGHT}", token.pos
                )
        if token.kind == "G":
            self.take()
            if weight < 2 or weight % 2 != 0:
                raise FormSpecError(f"G{weight}: weight must be even and >= 2", token.pos)
            return QuasiForm(eis={(weight, 0): 1})
        if token.kind == "H":
            self.take()
            if weight < 6 or weight % 2 != 0:
                raise FormSpecError(f"H{weight}: weight must be even and >= 6", token.pos)
            return hk_quasiform(weight)
        if token.kind == "DELTA":
            self.take()
            return QuasiForm(cusp={(12, 0, 0): 1})
        if token.kind == "S":
            self.take()
            name = f"S{weight}.{token.groups[1].lstrip('0') or '0'}"
            dim = cusp_dim(weight)
            if dim == 0:
                raise FormSpecError(f"{name}: no cusp forms of weight {weight}", token.pos)
            i = _at_most(token.groups[1], dim - 1)
            if i is None:
                raise FormSpecError(
                    f"{name}: basis index out of range (dimension {dim})", token.pos
                )
            return QuasiForm(cusp={(weight, i, 0): 1})
        raise FormSpecError(f"expected a form term, found {token.text!r}", token.pos)


def parse_form_spec(text: str) -> QuasiForm:
    """Parse the mini-grammar into a QuasiForm."""
    return _Parser(_tokenize(text), len(text)).parse()
