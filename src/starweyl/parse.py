"""Hand-written recursive descent parser for the expression language.

Grammar (whitespace insignificant, '*' mandatory, no juxtaposition):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | atom ('^' uint)?     uint <= MAX_EXPONENT
    atom     := rational | 'i' | 'h' | identifier | '(' expr ')'
    rational := integer ('/' integer)?

AST nodes are plain tuples:
    ("num", Fraction)            rational literal
    ("i", pos) / ("h", pos)      imaginary unit / hbar
    ("gen", name, pos)           identifier reference
    ("neg", node)                unary minus
    ("add"|"sub"|"mul", l, r)
    ("pow", node, int)

pos is (line, col), 1-based, kept only where later evaluation can fail.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonFiniteError, ParseError, StarWeylError
from .scalars import FormalScalar, GR_I, NumericScalar, coerce_coeff

_SYMBOLS = "+-*^()/"

# identifiers the grammar claims for itself; generators cannot use them
RESERVED_NAMES = ("h", "i")

# largest exponent after '^'; a larger one is a ParseError at its position,
# so a typo like q^99999999 cannot start an expansion that never ends
# (poly.MAX_POWER_TERMS bounds the size of the expansion itself)
MAX_EXPONENT = 100


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # "num" | "ident" | one of _SYMBOLS | "end"
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"_Token({self.kind!r}, {self.text!r})"


def _lex(src: str):
    toks = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(_Token("num", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("end", "", line, col))
    return toks


def _slash_error(t):
    return ParseError(
        "'/' is only allowed inside rational literals", t.line, t.col
    )


class _Parser:
    def __init__(self, src: str):
        self.toks = _lex(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {t.text or 'end of input'!r}",
                t.line,
                t.col,
            )
        return self.advance()

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            # catches juxtaposition like "q p" as well as stray symbols
            raise ParseError(
                f"unexpected {t.text!r} (operators must be explicit)",
                t.line,
                t.col,
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "*":
            self.advance()
            node = ("mul", node, self.factor())
        if self.peek().kind == "/":
            # a division such as p^2/3: only a literal may carry a '/'
            raise _slash_error(self.peek())
        return node

    def factor(self):
        t = self.peek()
        if t.kind == "-":
            self.advance()
            return ("neg", self.factor())
        node = self.atom()
        if self.peek().kind == "^":
            caret = self.advance()
            nt = self.peek()
            if nt.kind == "-":
                raise ParseError("negative exponent not allowed", nt.line, nt.col)
            if nt.kind != "num":
                raise ParseError(
                    "exponent must be a nonnegative integer", caret.line, caret.col
                )
            self.advance()
            k = int(nt.text)
            if k > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {k} exceeds the limit {MAX_EXPONENT}",
                    nt.line,
                    nt.col,
                )
            node = ("pow", node, k)
        return node

    def atom(self):
        t = self.peek()
        if t.kind == "num":
            self.advance()
            num = int(t.text)
            if self.peek().kind == "/":
                self.advance()
                dt = self.expect("num")
                den = int(dt.text)
                if den == 0:
                    raise ParseError("zero denominator", dt.line, dt.col)
                return ("num", Fraction(num, den))
            return ("num", Fraction(num))
        if t.kind == "ident":
            self.advance()
            if t.text == "i":
                return ("i", (t.line, t.col))
            if t.text == "h":
                return ("h", (t.line, t.col))
            return ("gen", t.text, (t.line, t.col))
        if t.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if t.kind == "/":
            raise _slash_error(t)
        raise ParseError(
            f"expected a value, found {t.text or 'end of input'!r}", t.line, t.col
        )


def parse_expression(src: str):
    """Parse src into an AST; raises ParseError with position on bad syntax."""
    return _Parser(src).parse()


def eval_ast(ast, leaf):
    """Evaluate an AST: leaf(node) gives the value of each "num", "i", "h"
    and "gen" node, and the values combine by -, +, * and ** as the other
    nodes say. Operands evaluate left to right."""

    def ev(node):
        kind = node[0]
        if kind in ("num", "i", "h", "gen"):
            return leaf(node)
        if kind == "neg":
            return -ev(node[1])
        if kind == "add":
            return ev(node[1]) + ev(node[2])
        if kind == "sub":
            return ev(node[1]) - ev(node[2])
        if kind == "mul":
            return ev(node[1]) * ev(node[2])
        if kind == "pow":
            return ev(node[1]) ** node[2]
        raise ValueError(f"bad AST node {node!r}")

    return ev(ast)


def h_unavailable(node):
    line, col = node[1]
    return ParseError("'h' is not available in the numeric domain", line, col)


def eval_constant(ast, domain: str = "formal", trunc: int = 8):
    """Evaluate a generator-free AST into a scalar of the given domain."""
    one = coerce_coeff(1, domain, trunc)

    def leaf(node):
        kind = node[0]
        if kind == "num":
            return one * node[1]
        if kind == "i":
            return one * GR_I
        if kind == "h":
            if domain == "formal":
                return FormalScalar.hbar(trunc)
            raise h_unavailable(node)
        line, col = node[2]
        raise ParseError(
            f"unknown identifier {node[1]!r} in a constant expression", line, col
        )

    return eval_ast(ast, leaf)


def scalar_from_text(text: str, domain: str = "formal", trunc: int = 8):
    """Parse a canonical scalar string ("1/2", "0+1/1*i", "1 - h^2", ...)."""
    return eval_constant(parse_expression(text), domain, trunc)


def is_json_number(x):
    """Whether x is a JSON number: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def scalar_from_json(raw, domain: str, trunc: int):
    """A coefficient of the domain read from a JSON value.

    Both domains take a string in the expression grammar and an integer;
    the numeric domain also takes any other number and an [re, im] pair.
    Anything else, booleans and integers beyond the float range included, is
    a StarWeylError.
    """
    if isinstance(raw, str):
        return scalar_from_text(raw, domain, trunc)
    numeric = domain == "numeric"
    try:
        if is_json_number(raw) and (numeric or isinstance(raw, int)):
            return coerce_coeff(raw, domain, trunc)
        if numeric and isinstance(raw, (list, tuple)) and len(raw) == 2 and all(
            map(is_json_number, raw)
        ):
            return NumericScalar(*raw)
    except OverflowError:
        raise NonFiniteError("numeric coefficient beyond the float range") from None
    raise StarWeylError(f"bad {domain} coefficient {raw!r}")
