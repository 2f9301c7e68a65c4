"""A small language for multilinear bracket identities.

Grammar (whitespace-insensitive)::

    identity := expr "=" expr
    expr     := term { ("+" | "-") term }
    term     := [ coeff "*" ] factor | coeff     -- bare coeff only as "0"
    factor   := var
              | "[" expr "," expr "]"            -- binary bracket
              | "[" expr "," expr "," expr "]"   -- ternary (Yamaguti) bracket
    coeff    := ["-"] integer [ "/" integer ]
    var      := lowercase letter { lowercase letter | digit }

Ternary brackets always mean the derived brackets
``[x,y,z] = [x,[y,z]] - [y,[x,z]] + [[x,y],z]``.  Variables are inferred
from the identifiers; each variable's multiplicity is its maximal number of
occurrences within a single additive term, which is what the checker's
polarization substitutions need.  In identity files, one identity per line
and ``#`` starts a comment.  Brackets nest at most :data:`MAX_NESTING` deep,
which bounds the recursion of parsing, formatting and evaluation.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

from . import checker
from .core import Algebra, DimensionMismatch, Scalar, Vector, bracket, format_rational, yamaguti

Expr = Union["Var", "Scale", "Sum", "Bracket"]

MAX_NESTING = 100


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Scale:
    coeff: Scalar
    child: Expr


@dataclass(frozen=True)
class Sum:
    terms: tuple[Expr, ...]  # empty Sum is the literal 0


@dataclass(frozen=True)
class Bracket:
    args: tuple[Expr, ...]  # length 2 or 3


@dataclass(frozen=True)
class IdentityAst:
    variables: tuple[str, ...]       # in order of first appearance
    multiplicities: tuple[int, ...]  # parallel to variables
    lhs: Expr
    rhs: Expr


class IdentitySyntaxError(ValueError):
    def __init__(self, line: int, column: int, found: str, expected: tuple[str, ...]):
        self.line = line
        self.column = column
        self.found = found
        self.expected = expected
        want = " or ".join(expected)
        super().__init__(f"line {line}, column {column}: expected {want}, found {found}")


class EvalError(ValueError):
    """An identity was evaluated against an unusable assignment."""


_Token = tuple[str, str, int, int]  # kind, text, line, column

_TOKEN_RE = re.compile(r"[0-9]+|[a-z][a-z0-9]*|[][,+\-*/=]")
_WS_RE = re.compile(r"\s+")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        ws = _WS_RE.match(text, pos)
        if ws:
            for ch in ws.group(0):
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            pos = ws.end()
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise IdentitySyntaxError(line, col, repr(text[pos]),
                                      ("an integer", "a variable", "an operator"))
        tok = m.group(0)
        if tok.isdigit():
            kind = "int"
        elif tok[0].isalpha():
            kind = "name"
        else:
            kind = tok
        tokens.append((kind, tok, line, col))
        col += len(tok)
        pos = m.end()
    tokens.append(("eof", "end of input", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # brackets open around the current position

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        kind, text, line, col = self.peek()
        found = text if kind == "eof" else repr(text)
        raise IdentitySyntaxError(line, col, found, expected)

    def expect(self, kind: str, shown: str) -> _Token:
        if self.peek()[0] != kind:
            self.fail((shown,))
        return self.advance()

    def identity(self) -> tuple[Expr, Expr]:
        lhs = self.expr()
        self.expect("=", "'='")
        rhs = self.expr()
        if self.peek()[0] != "eof":
            self.fail(("end of input",))
        return lhs, rhs

    def expr(self) -> Expr:
        terms = [self.term()]
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            t = self.term()
            terms.append(t if op == "+" else Scale(-1, t))
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> Expr:
        kind = self.peek()[0]
        if kind in ("int", "-"):
            coeff, is_bare_zero = self.coeff()
            if self.peek()[0] == "*":
                self.advance()
                return Scale(coeff, self.factor())
            if is_bare_zero:
                return Sum(())
            self.fail(("'*'",))
        return self.factor()

    def coeff(self) -> tuple[Scalar, bool]:
        negated = False
        if self.peek()[0] == "-":
            self.advance()
            negated = True
        num_tok = self.expect("int", "an integer")
        value: Scalar = int(num_tok[1])
        has_slash = False
        if self.peek()[0] == "/":
            self.advance()
            has_slash = True
            den_tok = self.expect("int", "an integer")
            den = int(den_tok[1])
            if den == 0:
                raise IdentitySyntaxError(den_tok[2], den_tok[3], repr(den_tok[1]),
                                          ("a nonzero denominator",))
            frac = Fraction(value, den)
            value = int(frac) if frac.denominator == 1 else frac
        if negated:
            value = -value
        is_bare_zero = not negated and not has_slash and num_tok[1] == "0"
        return value, is_bare_zero

    def factor(self) -> Expr:
        kind = self.peek()[0]
        if kind == "name":
            return Var(self.advance()[1])
        if kind == "[":
            if self.depth == MAX_NESTING:
                self.fail((f"at most {MAX_NESTING} nested brackets",))
            self.advance()
            self.depth += 1
            args = [self.expr()]
            self.expect(",", "','")
            args.append(self.expr())
            if self.peek()[0] == ",":
                self.advance()
                args.append(self.expr())
            self.expect("]", "']'" if len(args) == 3 else "',' or ']'")
            self.depth -= 1
            return Bracket(tuple(args))
        self.fail(("a variable", "'['", "a coefficient"))


def _walk(node: Expr) -> Iterator[Expr]:
    yield node
    if isinstance(node, Scale):
        yield from _walk(node.child)
    elif isinstance(node, Sum):
        for t in node.terms:
            yield from _walk(t)
    elif isinstance(node, Bracket):
        for a in node.args:
            yield from _walk(a)


def _additive_terms(side: Expr) -> tuple[Expr, ...]:
    return side.terms if isinstance(side, Sum) else (side,)


def _infer_variables(lhs: Expr, rhs: Expr) -> tuple[tuple[str, ...], tuple[int, ...]]:
    order: list[str] = []
    for node in (*_walk(lhs), *_walk(rhs)):
        if isinstance(node, Var) and node.name not in order:
            order.append(node.name)
    mults = dict.fromkeys(order, 0)
    for side in (lhs, rhs):
        for term in _additive_terms(side):
            counts: dict[str, int] = {}
            for node in _walk(term):
                if isinstance(node, Var):
                    counts[node.name] = counts.get(node.name, 0) + 1
            for name, n in counts.items():
                mults[name] = max(mults[name], n)
    return tuple(order), tuple(mults[n] for n in order)


def parse_identity(text: str) -> IdentityAst:
    """Parse one identity; raises :class:`IdentitySyntaxError` with position."""
    parser = _Parser(_tokenize(text))
    lhs, rhs = parser.identity()
    variables, multiplicities = _infer_variables(lhs, rhs)
    return IdentityAst(variables=variables, multiplicities=multiplicities,
                       lhs=lhs, rhs=rhs)


def parse_identity_file(text: str) -> list[tuple[int, IdentityAst]]:
    """Parse an identity file: one identity per line, ``#`` comments."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        content = line.split("#", 1)[0]
        if not content.strip():
            continue
        try:
            out.append((lineno, parse_identity(content)))
        except IdentitySyntaxError as exc:
            # column already matches the file line; fix up the line number
            raise IdentitySyntaxError(lineno, exc.column, exc.found,
                                      exc.expected) from None
    return out


def _format_expr(node: Expr) -> str:
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Scale):
        if isinstance(node.child, (Sum, Scale)):
            raise ValueError("scaled sums are not representable in the grammar")
        return f"{format_rational(node.coeff)}*{_format_expr(node.child)}"
    if isinstance(node, Bracket):
        return "[" + ",".join(_format_expr(a) for a in node.args) + "]"
    if isinstance(node, Sum):
        if not node.terms:
            return "0"
        out = _format_expr(node.terms[0])
        for t in node.terms[1:]:
            if isinstance(t, Scale) and t.coeff == -1:
                out += f" - {_format_expr(t.child)}"
            else:
                out += f" + {_format_expr(t)}"
        return out
    raise TypeError(f"not an expression node: {node!r}")


def format_identity(ast: IdentityAst) -> str:
    """Render an AST back to grammar text; reparsing gives an equal AST."""
    return f"{_format_expr(ast.lhs)} = {_format_expr(ast.rhs)}"


def eval_ast(A: Algebra, ast: IdentityAst,
             assignment: Mapping[str, Vector]) -> tuple[Vector, Vector]:
    """Evaluate both sides exactly under a variable assignment."""
    for name in ast.variables:
        if name not in assignment:
            raise EvalError(f"missing variable {name!r} in assignment")
        v = assignment[name]
        if v.dim != A.dim:
            raise DimensionMismatch(
                f"eval: variable {name!r} has dim {v.dim}, "
                f"algebra {A.name!r} has dim {A.dim}")

    def ev(node: Expr) -> Vector:
        if isinstance(node, Var):
            return assignment[node.name]
        if isinstance(node, Scale):
            return node.coeff * ev(node.child)
        if isinstance(node, Sum):
            acc = Vector.zero(A.dim)
            for t in node.terms:
                acc = acc + ev(t)
            return acc
        if isinstance(node, Bracket):
            vals = [ev(a) for a in node.args]
            if len(vals) == 2:
                return bracket(A, vals[0], vals[1])
            return yamaguti(A, vals[0], vals[1], vals[2])
        raise TypeError(f"not an expression node: {node!r}")

    return ev(ast.lhs), ev(ast.rhs)


def check_identity(A: Algebra, ast: IdentityAst, *, exhaustive: bool = False,
                   workers: int = 1) -> checker.CheckReport:
    """Check a parsed identity with the same contract as a builtin check."""
    return checker.run_check(A, ("dsl", format_identity(ast)),
                             exhaustive=exhaustive, workers=workers)
