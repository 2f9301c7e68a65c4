"""A small language for multilinear bracket identities.

Grammar (whitespace-insensitive)::

    identity := expr "=" expr
    expr     := term { ("+" | "-") term }
    term     := [ coeff "*" ] factor | coeff     -- bare coeff only as "0"
    factor   := var | "_"
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
which bounds the recursion of parsing, formatting and compiling.

``_`` is the *column variable*.  An identity that uses it states an
equality of operators: each side is the matrix whose column l is that side's
value at ``_ = e_l``.  Every additive term other than a literal ``0`` then
holds ``_`` exactly once, as the last argument of every bracket around it
and outside any sum inside a bracket, so that each side is linear in it:
``[a,_]`` is the left translation ``l+_a``, ``[a,b,_]`` is the sixfold
Yamagutian ``6Y(a;b)``, and a bracket whose last argument is an operator
composes with it (``[a,b,[c,_]] = 6Y(a;b) l+_c``).  ``_`` is neither a
variable nor substituted, and a misplaced ``_`` is a syntax error.

A parsed identity compiles once, on first use, into a staged straight-line
program over registers (``IdentityAst.plan``, a :class:`Program`): the
substituted variables first, in ``variables`` order, then one register per
distinct subterm.  Each step has the level of the fastest-varying variable
it depends on, so a scan of the substitution stream reruns a step only when
one of its own variables, or a slower one, changes.  A bracket whose last
argument varies faster than the others is split into the operator ``l+_a``
or ``6Y(a;b)``, built when ``a`` or ``b`` change, and an ``apply`` of it to
the last argument; the operator fills its columns ``[a,e_l]``/``[a,b,e_l]``
on first use.  Such an operator whose own variables leave out a slower one
(``[z,w,_]`` after ``x`` and ``y``) is a *memo step* (see :class:`Program`).
The top-level coefficients of both sides are multiplied by the lcm ``L`` of
their denominators, so a text such as ``1/6*[x,y,[z,w]] = ...`` scans in
integers; ``Program.evaluate`` divides the sides by ``L`` again.

A scan hands back stream positions only.  The sides of a counterexample
come from a second, *one-substitution* program (``IdentityAst.evaluator``,
compiled at the first counterexample): the same compiler, with every slot
at one level, so no bracket is split into an operator and its ``apply``
and no step is memoized.  It compiles the sides as written: a vector
identity's last variable stays a variable, so its sides cost one
``bracket`` or ``yamaguti`` per node and compose no operator, and an
operator identity keeps ``_`` as its column.  :func:`eval_ast` and every
builtin's ``evaluate`` run that program.

A *column program* compares two operator sides column by column.  An
operator identity compiles into one whose prefix is all of its variables:
its stream is every substitution followed by ``_ = e_0 ... e_{d-1}``, and a
substitution violates iff one of its columns does.  A vector identity whose
last variable ``v`` stands only where ``_`` may stand compiles with ``v`` as
``_``, and its scan compares column l of the two operator sides, once per
prefix, where it would compare the sides at ``v = e_l``.  By polarization
that is exact: ``v`` has multiplicity 1, so its options are
``e_0 ... e_{d-1}`` in order, and each side is linear in ``v``, so its value
at ``e_l`` is its column l.  In that rule a binary bracket ``[a,b]``
around ``v`` whose first argument holds it reads as ``-[b,a]``, and so
the compiler compiles it when that argument compiled to an operator, with
the sign on the term's top-level coefficient (ternary brackets are not
reordered).  The arithmetic is exact, so every value, count and first
counterexample equals that of evaluating each substitution afresh.

``IdentityAst.key`` names the scan a check needs: LHS - RHS in the free
anticommutative algebra.  Ternary brackets are expanded by their
definition, and the result is reduced modulo ``[a,a] = 0`` and
``[a,b] = -[b,a]`` (see :func:`_expanded`).  Variable k is written k and
``_`` as the number of variables, the slots they take in the program, so
a column-compiled last variable and its twin's ``_`` (below) are one
monomial.  The top-level coefficients are cleared to integers as in the
program, and the polynomial is divided by its lead coefficient; the key is
that polynomial, its monomials in canonical form (see :func:`_ordered`),
with the program's slot multiplicities and column flag.  Every
:class:`Algebra` is anticommutative and computes ``[x,y,z]`` by that
definition, so two identities with equal keys have sides whose differences
are proportional at every substitution, and they violate at the same stream
indices.  An operator identity and the vector identity whose last variable
is its ``_`` (its *twin*) share one scan, and so do ``1/6*`` texts and
their integer forms, and texts that differ by anticommutativity or by a
ternary bracket written out.  An identity whose key is 0
(``IdentityAst.vanishes``) holds at every substitution of every algebra,
and the checker needs no scan.  A bracket of two expanded arguments forms
at most :data:`MAX_MONOMIALS` products; an identity that would need more is
not expanded and is its own key.  Builtin and user identities are scanned
by the staged program and reported through the one-substitution program
alike.

``Program.blocks`` are the key's *antisymmetric blocks*: sets of variables,
none of them column-compiled, any two of which negate the key's polynomial
when swapped.  The violations are then closed under permuting each block, and
none gives two variables of a block equal values, since there LHS - RHS
equals its negative.  So a scan visits only the *canonical* substitutions,
whose option indices increase along each block, and counts each violation
it finds as its orbit of ``Program.orbit`` (the product of the blocks'
factorials).  A violation's first orbit member in stream order is
canonical, so the first violation and every report stay those of the
unreduced scan.

``Program.diagonals`` are the key's *diagonal pairs*: two slots, in no one
block, such that its polynomial is 0 once the later one's variable is set
to the earlier one's.  A substitution that gives such a pair equal values
holds in every anticommutative algebra, and options are equal iff their
indices are, so a scan skips such prefixes before any step runs, and such
last-slot indices.  No first violation or count moves.

A permutation of the basis that is an automorphism of the algebra maps
options to options and violations to violations.  With the orbit table of a
group of them (:meth:`Program.orbits`), a scan visits only the prefixes, and
of each only the last-slot options, that come first in their orbit.
"""
from __future__ import annotations

import bisect
import math
import operator
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Mapping, Union

from .core import (
    Algebra,
    DimensionMismatch,
    Operator,
    Scalar,
    Vector,
    _canonical,
    bracket,
    format_rational,
    left_translation,
    sixfold_yamagutian,
    yamaguti,
)

if TYPE_CHECKING:
    from .checker import CheckReport, WorkerPool

Expr = Union["Var", "Column", "Scale", "Sum", "Bracket"]
Value = Vector | Operator

MAX_NESTING = 100
MAX_MONOMIALS = 4096


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Column:
    """The column variable ``_``."""


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

    @cached_property
    def level(self) -> str:
        """``"operator"`` when the identity uses ``_``, else ``"vector"``."""
        uses = any(isinstance(n, Column) for side in (self.lhs, self.rhs) for n in _walk(side))
        return "operator" if uses else "vector"

    @cached_property
    def slots(self) -> tuple[Expr | None, tuple[int, ...]]:
        """The column leaf and the slot multiplicities of the staged program."""
        return _slots(self)

    @cached_property
    def plan(self) -> Program:
        """Both sides compiled into one staged program (see :class:`Program`)."""
        return _compile(self)

    @cached_property
    def evaluator(self) -> Program:
        """Both sides compiled for one substitution at a time, unstaged."""
        return _compile(self, staged=False)

    @cached_property
    def expansion(self) -> tuple[dict, dict[int, Scalar]] | None:
        """LHS - RHS in the free anticommutative algebra: the monomial numbering
        of :func:`_expanded` and the nonzero coefficients, or None if too large."""
        return _expansion(self)

    @cached_property
    def key(self) -> tuple | IdentityAst:
        """Equal for identities that one scan serves (see the module docstring)."""
        return _key(self)

    @property
    def vanishes(self) -> bool:
        """Whether the key's polynomial is 0 in every anticommutative algebra."""
        return not isinstance(self.key, IdentityAst) and not self.key[0]


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

_TOKEN_RE = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[a-z][a-z0-9]*)|[][,+\-*/=_]|(?P<eof>\Z)|(?P<bad>\S)")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start, pos = 1, 0, 0  # pos: the end of the previous token
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        newlines = text.count("\n", pos, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", pos, start) + 1
        pos = m.end()
        col = start - line_start + 1
        kind = m.lastgroup or m.group()
        if kind == "bad":
            raise IdentitySyntaxError(line, col, repr(m.group()),
                                      ("an integer", "a variable", "an operator"))
        tokens.append((kind, "end of input" if kind == "eof" else m.group(), line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # brackets open around the current position
        self.columns: list[_Token] = []  # every "_" token, in order
        self.plain_terms: list[_Token] = []  # first tokens of top-level terms without "_"

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...], tok: _Token | None = None):
        kind, text, line, col = self.peek() if tok is None else tok
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
        if self.columns and self.plain_terms:
            self.fail(("'_' in every term",), self.plain_terms[0])
        return lhs, rhs

    def expr(self) -> Expr:
        first_column = len(self.columns)
        terms = [self.counted_term()]
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            t = self.counted_term()
            terms.append(t if op == "+" else Scale(-1, t))
        if self.depth and len(terms) > 1 and len(self.columns) > first_column:
            self.fail(("no '_' in a sum inside a bracket",), self.columns[first_column])
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def counted_term(self) -> Expr:
        """A term; a top-level one without "_" is remembered for :meth:`identity`."""
        start, before = self.peek(), len(self.columns)
        t = self.term()
        if not self.depth and len(self.columns) == before and t != Sum(()):
            self.plain_terms.append(start)
        return t

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
        num_tok, value = self.integer()
        has_slash = False
        if self.peek()[0] == "/":
            self.advance()
            has_slash = True
            den_tok, den = self.integer()
            if den == 0:
                raise IdentitySyntaxError(den_tok[2], den_tok[3], repr(den_tok[1]),
                                          ("a nonzero denominator",))
            frac = Fraction(value, den)
            value = int(frac) if frac.denominator == 1 else frac
        if negated:
            value = -value
        is_bare_zero = not negated and not has_slash and num_tok[1] == "0"
        return value, is_bare_zero

    def integer(self) -> tuple[_Token, int]:
        tok = self.expect("int", "an integer")
        try:
            return tok, int(tok[1])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise IdentitySyntaxError(tok[2], tok[3], f"an integer of {len(tok[1])} digits",
                                      ("a shorter integer",)) from None

    def factor(self) -> Expr:
        kind = self.peek()[0]
        if kind == "name":
            return Var(self.advance()[1])
        if kind == "_":
            self.columns.append(self.advance())
            return Column()
        if kind == "[":
            if self.depth == MAX_NESTING:
                self.fail((f"at most {MAX_NESTING} nested brackets",))
            self.advance()
            self.depth += 1
            ends = [len(self.columns)]  # "_" count before the bracket, then after each argument
            args = [self.expr()]
            ends.append(len(self.columns))
            self.expect(",", "','")
            args.append(self.expr())
            ends.append(len(self.columns))
            if self.peek()[0] == ",":
                self.advance()
                args.append(self.expr())
                ends.append(len(self.columns))
            self.expect("]", "']'" if len(args) == 3 else "',' or ']'")
            self.depth -= 1
            if ends[-2] > ends[0]:
                self.fail(("'_' only as the last bracket argument",), self.columns[ends[0]])
            return Bracket(tuple(args))
        self.fail(("a variable", "'_'", "'['", "a coefficient"))


def _walk(node: Expr) -> Iterator[Expr]:
    """The nodes under ``node``, itself first, in preorder.

    One generator with a stack, so a node costs the same at any depth.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        kind = type(node)  # the node classes have no subclasses
        if kind is Bracket:
            stack += node.args[::-1]
        elif kind is Sum:
            stack += node.terms[::-1]
        elif kind is Scale:
            stack.append(node.child)


def _additive_terms(side: Expr) -> tuple[Expr, ...]:
    return side.terms if isinstance(side, Sum) else (side,)


def _column_sign(term: Expr, leaf: Expr) -> int:
    """±1 when ``term`` holds ``leaf`` once, last in each bracket around it,
    in no sum, reading a binary bracket ``[a,b]`` whose ``a`` holds it as
    ``-[b,a]``: the product of those flips.  Otherwise 0."""
    sign = 1
    while isinstance(term, (Scale, Bracket)):
        if isinstance(term, Scale):
            term = term.child
            continue
        args = term.args
        if len(args) == 3:
            if leaf in _walk(args[0]) or leaf in _walk(args[1]):
                return 0
        elif leaf in _walk(args[0]):
            if leaf in _walk(args[1]):
                return 0
            args, sign = args[::-1], -sign
        term = args[-1]
    return sign if term == leaf else 0


def _infer_variables(lhs: Expr, rhs: Expr) -> tuple[tuple[str, ...], tuple[int, ...]]:
    mults: dict[str, int] = {}  # in order of first appearance
    for side in (lhs, rhs):
        for term in _additive_terms(side):
            counts: dict[str, int] = {}
            for node in _walk(term):
                if isinstance(node, Var):
                    counts[node.name] = counts.get(node.name, 0) + 1
            for name, n in counts.items():
                mults[name] = max(mults.get(name, 0), n)
    return tuple(mults), tuple(mults.values())


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
    if isinstance(node, Column):
        return "_"
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


# Step makers.  Each returns a step: a function of the algebra and the
# registers ``r`` that computes one subterm.  Steps look the primitives up
# in this module when they run, so wrappers installed here see every call.

def _bracket_step(i, j):
    return lambda A, r: bracket(A, r[i], r[j])


def _yamaguti_step(i, j, k):
    return lambda A, r: yamaguti(A, r[i], r[j], r[k])


def _apply_step(i, j):
    return lambda A, r: r[i].apply(r[j])


def _left_translation_step(i):
    return lambda A, r: left_translation(A, r[i])


def _sixfold_yamagutian_step(i, j):
    return lambda A, r: sixfold_yamagutian(A, r[i], r[j])


def _compose_step(i, j):
    return lambda A, r: r[i] @ r[j]


def _add_step(i, j):
    return lambda A, r: r[i] + r[j]


def _sub_step(i, j):
    return lambda A, r: r[i] - r[j]


def _scale_step(c, i):
    return lambda A, r: c * r[i]


def _zero_step(kind):
    return lambda A, r: kind.zero(A.dim)


def _identity_step():
    return lambda A, r: Operator.identity(A.dim)


class Program:
    """Both sides of an identity as a staged straight-line program.

    The registers hold one substituted vector per *slot* (the variables in
    ``variables`` order, then ``_`` for an operator identity), then the
    value of each distinct subterm.  Each step has a *level*: one more than
    the index of the last slot it depends on, or 0 for a constant such as
    ``0`` or ``_``.  In stream order the last slot is fastest, so when slot k
    advances only the steps of level > k run again.  :meth:`evaluate` runs
    every step once; :meth:`scan` drives the program over a range of the
    substitution stream, one option list per slot (``multiplicities``).  A
    *column* program's last slot is ``_``: its sides are operators, no step
    reads that slot, and ``inner`` is empty.  The program's top-level
    coefficients are ``L`` times the text's, and ``scale`` is ``1/L``.

    ``blocks`` holds the *antisymmetric blocks*: tuples of slots, in slot
    order, such that swapping the values of any two slots of a block
    negates LHS - RHS in every anticommutative algebra, and ``diagonals``
    the *diagonal pairs* ``(i, j)``, ``i < j``, such that LHS - RHS is 0
    in every anticommutative algebra where slots i and j have equal values
    (see :func:`_symmetries`).

    ``memos`` holds the *memo steps*: linear maps that leave out a slot
    below their level.  Until a slot at or before ``memo_from`` advances,
    no memo step meets the same option indices of its slots twice; from
    then on a scan runs each once per such indices and keeps its values in
    a table of its own, of at most the product of those slots' option
    counts.
    """

    def __init__(self, multiplicities: Sequence[int], steps: Sequence[tuple[int, Callable]],
                 levels: Sequence[int], lhs: int, rhs: int, column: bool, scale: Scalar,
                 blocks: Sequence[tuple[int, ...]], diagonals: Sequence[tuple[int, int]],
                 memos: Mapping[int, tuple[int, ...]]):
        self.multiplicities = tuple(multiplicities)
        self.nvars = nvars = len(self.multiplicities)
        self.column = column
        self.scale = scale
        self.size = len(levels)
        self.lhs = lhs
        self.rhs = rhs
        # runs[k]: the (register, step) pairs with k <= level < nvars;
        # inner: those of level nvars, which follow the fastest slot
        self.runs = tuple(tuple(s for s in steps if k <= levels[s[0]] < nvars)
                          for k in range(nvars + 1))
        self.inner = tuple(s for s in steps if levels[s[0]] == nvars)
        self.blocks = tuple(blocks)
        # prev[k]: the slot before k in its block, or -1; after[k]: the
        # number of slots after k in its block
        self.prev, self.after = [-1] * nvars, [0] * nvars
        for block in self.blocks:
            for t, k in enumerate(block):
                if t:
                    self.prev[k] = block[t - 1]
                self.after[k] = len(block) - 1 - t
        self.orbit = math.prod(math.factorial(len(b)) for b in self.blocks)
        self.diagonals = tuple(diagonals)
        # memos: (register, step, the slots it reads) of each memo step;
        # memo_from: the last slot below a memo step's level that it does not read
        self.memos = tuple((out, step, memos[out]) for out, step in steps if out in memos)
        self.memo_from = max((k for out, _, read in self.memos for k in range(levels[out])
                              if k not in read), default=-1)

    def evaluate(self, A: Algebra, args: Sequence[Vector]) -> tuple[Value, Value]:
        """Both sides at one substitution (vectors in ``variables`` order)."""
        r = [*args, *[None] * (self.size - len(args))]
        # a step's level is at least its operands', so no step of runs[0]
        # uses one of inner
        for out, step in (*self.runs[0], *self.inner):
            r[out] = step(A, r)
        left, right = r[self.lhs], r[self.rhs]
        if self.scale != 1:
            left, right = self.scale * left, self.scale * right
        return left, right

    def scan(self, A: Algebra, options: Sequence[Sequence[Vector]], start: int, stop: int,
             exhaustive: bool, orbits: tuple | None = None) -> tuple[int | None, int, int]:
        """Scan the canonical substitutions in [start, stop) of the product of ``options``.

        ``options`` holds one option list per slot, the last slot fastest,
        and ``stop`` is at most the product's length.  Returns the first
        canonical violating stream index (or None), the number of canonical
        violations and of *prefixes* (values of every slot but the last)
        holding one, each counted with its orbit: stream positions only,
        which the caller decodes into a substitution.  Without ``exhaustive``
        the scan ends at the first violation.  Scans of consecutive ranges
        find the stream's first violation, and their counts add up to the
        stream's (see the module docstring).  A column program compares
        column i of its operator sides where a vector program compares the
        sides at i, and ends at its first bad column unless ``exhaustive``.
        The orbits are the blocks', or those of :meth:`orbits`; a prefix or
        last-slot index that a diagonal pair ties to an equal one is skipped.
        """
        if start >= stop:
            return None, 0, 0
        n, runs, inner, lhs, rhs = self.nvars, self.runs, self.inner, self.lhs, self.rhs
        column = self.column
        if not n:
            left, right = self.evaluate(A, ())
            return (None, 0, 0) if left == right else (start, 1, 1)
        last = n - 1
        idx = [0] * n  # the current option index of each slot
        fastest = options[last]
        prefixes = (self._prefixes(options, idx, start, stop) if orbits is None
                    else _orbit_prefixes(orbits, idx, start, stop, len(fastest)))
        ties = [(i, j) for i, j in self.diagonals if j < last]
        tied = [i for i, j in self.diagonals if j == last]
        r = [None] * self.size
        first, nviol, nprefixes = None, 0, 0
        memo_from = self.memo_from
        since = n  # the slowest slot changed since the last prefix that ran
        for k, base, lo, weight, cols in prefixes:
            if ties and any(idx[i] == idx[j] for i, j in ties):
                since = min(since, k)  # each substitution of the prefix holds
                continue
            k, since = min(since, k), n
            for j in range(max(k, 0), last):
                r[j] = options[j][idx[j]]
            if 0 <= k <= memo_from:  # a memo step's value may now repeat
                memo = {out: (out, _memoized(step, slots, idx, {}))
                        for out, step, slots in self.memos}
                runs, memo_from = [[memo.get(s[0], s) for s in run] for run in runs], -1
            for out, step in runs[k + 1]:
                r[out] = step(A, r)
            end = min(len(fastest), stop - base)
            columns = range(lo, end) if cols is None else [i for i in cols if lo <= i < end]
            if tied:
                equal = {idx[i] for i in tied}
                columns = [i for i in columns if i not in equal]
            bad = []
            for i in columns:
                if column:
                    differ = r[lhs].column(i) != r[rhs].column(i)
                else:
                    r[last] = fastest[i]
                    for out, step in inner:
                        r[out] = step(A, r)
                    differ = r[lhs] != r[rhs]
                if differ:
                    bad.append(i)
                    if not exhaustive:
                        break
            if bad:
                if first is None:
                    first = base + bad[0]
                if not exhaustive:
                    return first, 1, 1
                nviol += weight * (len(bad) if cols is None else sum(map(cols.get, bad)))
                nprefixes += weight
        return first, nviol, nprefixes

    def _prefixes(self, options: Sequence[Sequence[Vector]], idx: list[int], start: int,
                  stop: int) -> Iterator[tuple]:
        """The prefixes of canonical substitutions in [start, stop), in stream
        order, set in ``idx`` in turn: (the slowest slot changed, or -1; the
        stream index; the first last-slot index; the orbit; None: all columns)."""
        n, prev = self.nvars, self.prev
        top = [len(o) - 1 - a for o, a in zip(options, self.after)]  # highest canonical index
        if min(top) < 0:  # a block has more slots than options: nothing is canonical
            return
        strides = [1] * n  # stream index step of each slot
        for k in reversed(range(n - 1)):
            strides[k] = strides[k + 1] * len(options[k + 1])
        rem = start
        for k in reversed(range(n)):
            rem, idx[k] = divmod(rem, len(options[k]))
        # move to the first canonical substitution at or after start
        for k in range(n):
            if idx[k] > top[k]:  # no canonical one agrees with idx on slots 0..k
                if _advance(idx, k - 1, prev, top) < 0:
                    return
                break
            if prev[k] >= 0 and idx[k] <= idx[prev[k]]:
                idx[k] = idx[prev[k]]  # one below the lowest canonical index
                _advance(idx, k, prev, top)
                break
        last, k = n - 1, -1
        while True:
            base = sum(map(operator.mul, idx[:last], strides))  # stream index of the prefix
            if base + idx[last] >= stop:
                return
            yield k, base, idx[last], self.orbit, None
            k = _advance(idx, last - 1, prev, top)
            if k < 0:
                return

    def orbits(self, options: Sequence[Sequence[Vector]],
               group: Sequence[tuple[int, ...]]) -> tuple[list[int], list[tuple]]:
        """The orbit table of the product of ``options`` under the blocks and
        ``group``, a group of automorphisms that permute the basis; the last
        slot is in no block.  For each canonical prefix that no diagonal pair
        ties, in stream order: its stream index, and its option indices, its
        orbit and None or, where its stabilizer moves columns, the canonical
        columns with their orbits.

        A prefix is canonical when it comes first in stream order within its
        orbit.  The table is built depth first, one slot at a time, over the
        option indices that increase along each block.  At a *closed*
        position, one that no block straddles, a prefix is kept only if no
        element of the stabilizer of its part before the last closed
        position maps it below itself, once each block's images are sorted;
        the elements that fix it go on.  Their images agree with the prefix
        before that position, so a prefix that passes every such test comes
        first in its orbit, and a canonical one passes each.  The orbit then
        holds ``len(group) / len(stabilizer)`` prefixes, and the columns'
        orbits are those of the whole prefix's stabilizer.
        """
        n, last, prev = self.nvars, self.nvars - 1, self.prev
        # per multiplicity (one option list each) and element, the image of each option index
        tables: dict[int, Sequence] = {}
        for m, o in zip(self.multiplicities, options):
            if m == 1:  # the options e_0 ... e_{d-1}
                tables[m] = group
            elif m not in tables:
                sets = [[i for i, c in enumerate(v.coords) if c] for v in o]
                where = {frozenset(s): i for i, s in enumerate(sets)}
                tables[m] = [[where[frozenset([p[i] for i in s])] for s in sets] for p in group]
        moves = [tables[m] for m in self.multiplicities]
        top = [len(o) - 1 - a for o, a in zip(options, self.after)]  # highest canonical index
        strides = [math.prod(map(len, options[k + 1:])) for k in range(last)]
        ties = [[i for i, j in self.diagonals if j == k] for k in range(last)]
        # checks[k]: where k is a closed position, the slots since the one
        # before it, and the blocks among them, by place in that span
        checks, start = [None] * n, 0
        for k in range(1, n):
            if all(b[-1] < k or b[0] >= k for b in self.blocks):
                checks[k] = (range(start, k), [[j - start for j in b] for b in self.blocks
                                               if start <= b[0] < k])
                start = k
        idx, bases, entries = [0] * n, [], []

        def walk(k: int, stabilizer: Sequence[int]) -> None:
            # the slots before k are set, and the elements of ``stabilizer``
            # fix them up to the closed position before k
            if checks[k] is not None:
                span, inner = checks[k]
                p = idx[span.start:k]
                fixing = []
                for g in stabilizer:
                    q = [moves[j][g][idx[j]] for j in span]
                    for block in inner:
                        for t, i in zip(block, sorted([q[t] for t in block])):
                            q[t] = i
                    if q < p:
                        return
                    if q == p:
                        fixing.append(g)
                stabilizer = fixing
            if k == last:
                cols = None
                if len(stabilizer) > 1:
                    move = moves[last]
                    orbits = [{move[g][i] for g in stabilizer} for i in range(len(options[last]))]
                    cols = {i: len(o) for i, o in enumerate(orbits) if i == min(o)}
                bases.append(sum(map(operator.mul, idx, strides)))
                entries.append((tuple(idx[:last]), self.orbit * len(group) // len(stabilizer),
                                cols))
                return
            tied = {idx[i] for i in ties[k]}  # a value that makes every substitution hold
            for i in range(idx[prev[k]] + 1 if prev[k] >= 0 else 0, top[k] + 1):
                if i not in tied:
                    idx[k] = i
                    walk(k + 1, stabilizer)

        walk(0, range(len(group)))
        return bases, entries


def _orbit_prefixes(orbits: tuple, idx: list[int], start: int, stop: int,
                    width: int) -> Iterator[tuple]:
    """:meth:`Program._prefixes` of an orbit table's canonical prefixes."""
    bases, entries = orbits
    k = None
    for e in range(bisect.bisect_left(bases, start - start % width), len(bases)):
        base = bases[e]
        if base >= stop:
            return
        p, weight, cols = entries[e]
        # the first slot that differs from the last prefix
        k = -1 if k is None else next(j for j, i in enumerate(p) if idx[j] != i)
        idx[:len(p)] = p
        yield k, base, max(start - base, 0), weight, cols


def _memoized(step: Callable, slots: tuple[int, ...], idx: list[int], table: dict) -> Callable:
    """``step``, run once per option indices ``idx`` gives its ``slots``; ``table``
    keeps its values by those indices."""
    key = operator.itemgetter(*slots)

    def run(A, r):
        k = key(idx)
        value = table.get(k)
        if value is None:
            value = table[k] = step(A, r)
        return value
    return run


def _advance(idx: list[int], k: int, prev: Sequence[int], top: Sequence[int]) -> int:
    """Advance ``idx`` past every substitution that agrees with it on slots 0..k.

    The slowest slot at or before k below its highest canonical index steps
    up, and every faster slot takes its lowest one.  Returns that slot, or
    -1 when there is none and the stream is done.
    """
    while k >= 0 and idx[k] >= top[k]:
        k -= 1
    if k >= 0:
        idx[k] += 1
        for j in range(k + 1, len(idx)):
            idx[j] = idx[prev[j]] + 1 if prev[j] >= 0 else 0
    return k


def _top_coefficient(term: Expr) -> tuple[Scalar, Expr]:
    """An additive term as (coefficient, the term without its outer scales)."""
    c: Scalar = 1
    while isinstance(term, Scale):
        c, term = c * term.coeff, term.child
    return c, term


def _cleared(ast: IdentityAst) -> tuple[int, list[list[tuple[int, Expr]]]]:
    """The lcm ``L`` of the sides' top-level denominators, and each side's additive
    terms as (top-level coefficient times ``L``, the term without its outer scales)."""
    sides = [[_top_coefficient(t) for t in _additive_terms(side)] for side in (ast.lhs, ast.rhs)]
    lcm = math.lcm(*[c.denominator for side in sides for c, _ in side])
    return lcm, sides if lcm == 1 else [[(c.numerator * (lcm // c.denominator), t)
                                         for c, t in side] for side in sides]


def _slots(ast: IdentityAst) -> tuple[Expr | None, tuple[int, ...]]:
    """The column leaf (``_``, the last variable or None) and the slot
    multiplicities (see the module docstring)."""
    if ast.level == "operator":
        return Column(), (*ast.multiplicities, 1)
    if ast.variables:
        leaf = Var(ast.variables[-1])
        if all(  # a literal 0 may follow a minus
                _column_sign(t, leaf) or t in (Sum(()), Scale(-1, Sum(())))
                for side in (ast.lhs, ast.rhs) for t in _additive_terms(side)):
            return leaf, ast.multiplicities
    return None, ast.multiplicities


def _compile(ast: IdentityAst, staged: bool = True) -> Program:
    """Compile both sides into one staged program.

    A bracket on vectors whose last argument has a higher level than the
    others is split into the operator ``l+_a`` or ``6Y(a;b)``, built at the
    level of ``a`` and ``b``, and its ``apply`` at the level of the last
    argument; the operator's columns, filled on first use, then serve every
    value the last argument takes before ``a`` or ``b`` change, and an
    operator that leaves out a slower slot is a memo step (see :class:`Program`).
    A binary bracket ``[a,b]`` whose ``a`` compiles to an operator (``a``
    holds the column leaf) compiles as ``-[b,a]``, and the sign goes to the
    top-level coefficient of the term, as :func:`_cleared` gives it.

    Unless ``staged``, the program evaluates one substitution: it compiles
    the sides as written, a vector identity's last variable stays a
    variable, and every slot has level 0, so no bracket is split, no step
    is memoized and the program has no blocks.  A vector identity's sides
    are then one ``bracket`` or ``yamaguti`` per node, with no operator.
    """
    leaf, multiplicities = (ast.slots if staged or ast.level == "operator"
                            else (None, ast.multiplicities))
    column = leaf is not None
    lcm, sides = _cleared(ast)
    index = {name: i for i, name in enumerate(ast.variables)}
    # register -> level
    levels = list(range(1, len(multiplicities) + 1)) if staged else [0] * len(multiplicities)
    reads = [(k,) for k in range(len(multiplicities))]  # register -> the slots it reads
    steps, memos = [], {}  # memos: register of a memo step -> the slots it reads
    # (maker, constants, operands) -> register: a repeated subterm runs once
    registers: dict[tuple, int] = {}

    def emit(make, operands: tuple[int, ...], *constants) -> int:
        key = (make, constants, operands)
        if key not in registers:
            out = registers[key] = len(levels)
            levels.append(max((levels[i] for i in operands), default=0))
            reads.append(tuple(sorted({k for i in operands for k in reads[i]})))
            steps.append((out, make(*constants, *operands)))
            if make in (_left_translation_step, _sixfold_yamagutian_step) \
                    and len(reads[out]) < levels[out]:  # it leaves out a slower slot
                memos[out] = reads[out]
        return registers[key]

    composed: dict[int, tuple[int, int]] = {}  # register of P @ Q -> (P, Q)

    def compose(p: int, q: int) -> int:
        """The register of ``p @ q``, as ``(p @ a) @ b`` when ``q`` is ``a @ b``
        and only ``b`` has its level: ``p @ a`` then runs less often."""
        if q in composed:
            a, b = composed[q]
            if max(levels[p], levels[a]) < levels[b]:
                return compose(compose(p, a), b)
        out = emit(_compose_step, (p, q))
        composed[out] = (p, q)
        return out

    def compile_sum(terms: Sequence[tuple[Scalar, Expr]], zero: type) -> tuple[int, bool, int]:
        """``compile_node`` of the sum of ``c * t`` over the pairs ``(c, t)`` of ``terms``."""
        acc, is_operator = None, zero is Operator
        for c, t in terms:
            if isinstance(t, Sum) and not t.terms:  # a literal 0 adds nothing
                continue
            reg, is_operator, sign = compile_node(t, zero)
            reg, c = placed(reg), c * sign
            if acc is not None and c == -1:
                acc = emit(_sub_step, (acc, reg))
            else:
                reg = reg if c == 1 else emit(_scale_step, (reg,), c)
                acc = reg if acc is None else emit(_add_step, (acc, reg))
        return (emit(_zero_step, (), zero) if acc is None else acc), is_operator, 1

    def placed(reg: int | None) -> int:  # the register of the leaf outside a bracket
        return emit(_identity_step, ()) if reg is None else reg

    def compile_node(node: Expr, zero: type) -> tuple[int | None, bool, int]:
        """(register or None for the leaf, holds an operator, sign s): ``node = s * register``."""
        if column and node == leaf:
            return None, True, 1
        if isinstance(node, Var):
            return index[node.name], False, 1
        if isinstance(node, Scale):
            reg, is_operator, sign = compile_node(node.child, zero)
            return emit(_scale_step, (placed(reg),), node.coeff), is_operator, sign
        if isinstance(node, Sum):
            return compile_sum([_top_coefficient(t) for t in node.terms], zero)
        args = [compile_node(a, Vector) for a in node.args]
        flip = len(args) == 2 and args[0][1]  # [a,b] = -[b,a]: the operator goes last
        *front, (reg, is_operator, sign) = args[::-1] if flip else args
        front, sign = tuple(f[0] for f in front), -sign if flip else sign
        linear = _left_translation_step if len(front) == 1 else _sixfold_yamagutian_step
        if reg is None:  # a bracket around the leaf is l+_a or 6Y(a;b) itself
            return emit(linear, front), True, sign
        if is_operator:
            return compose(emit(linear, front), reg), True, sign
        if levels[reg] > max(levels[i] for i in front):
            return emit(_apply_step, (emit(linear, front), reg)), False, sign
        step = _bracket_step if len(front) == 1 else _yamaguti_step
        return emit(step, (*front, reg)), False, sign

    zero = Operator if column else Vector
    lhs, rhs = (compile_sum(side, zero)[0] for side in sides)
    # regrouping leaves compositions that no side reads: drop them (a step's
    # operands come before it)
    operands = {out: key[2] for key, out in registers.items()}
    live = {lhs, rhs}
    for out, _ in reversed(steps):
        if out in live:
            live.update(operands[out])
    steps = [step for step in steps if step[0] in live]
    return Program(multiplicities, steps, levels, lhs, rhs, column,
                   Fraction(1, lcm) if lcm != 1 else 1,
                   *(_symmetries(ast) if staged else ((), ())), memos)


class _TooLarge(Exception):
    pass


def _bracket(p: Sequence[tuple[int, Scalar]], q: Sequence[tuple[int, Scalar]], numbers: dict,
             sign: int = 1) -> list[tuple[int, Scalar]]:
    """``sign * [p,q]`` of two expanded polynomials (see :func:`_expanded`)."""
    if len(p) * len(q) > MAX_MONOMIALS:
        raise _TooLarge
    out = []
    number = numbers.setdefault
    for a, c in p:
        c *= sign
        for b, d in q:
            if a < b:  # [a,a] = 0, and [a,b] = -[b,a]
                out.append((number((a, b), len(numbers)), c * d))
            elif a > b:
                out.append((number((b, a), len(numbers)), -c * d))
    return out


def _expanded(node: Expr, index: Mapping[str, int], numbers: dict) -> list[tuple[int, Scalar]]:
    """``node`` in the free anticommutative algebra, as (monomial number,
    coefficient) pairs; a number may repeat.

    Ternary brackets are expanded by their definition.  ``numbers`` numbers
    each monomial when first met: variable k is k, ``_`` is ``len(index)``,
    and a binary bracket is numbered by the pair of its arguments' numbers in
    increasing order.  Those monomials are a basis of the free
    anticommutative algebra.  A bracket of two expanded arguments that would
    form more than :data:`MAX_MONOMIALS` products raises :class:`_TooLarge`.
    """
    kind = type(node)  # the node classes have no subclasses
    if kind is Var:
        return [(index[node.name], 1)]
    if kind is Column:
        return [(len(index), 1)]
    if kind is Scale:
        c = node.coeff
        return [(n, c * d) for n, d in _expanded(node.child, index, numbers)]
    if kind is Sum:
        return [term for t in node.terms for term in _expanded(t, index, numbers)]
    args = [_expanded(a, index, numbers) for a in node.args]
    if len(args) == 2:
        return _bracket(*args, numbers)
    x, y, z = args  # [x,y,z] = [x,[y,z]] - [y,[x,z]] + [[x,y],z]
    return [*_bracket(x, _bracket(y, z, numbers), numbers),
            *_bracket(y, _bracket(x, z, numbers), numbers, -1),
            *_bracket(_bracket(x, y, numbers), z, numbers)]


def _ordered(sign: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """``sign * [a,b]`` of two canonical monomials, as (sign, canonical monomial).

    A canonical monomial is a tuple of ints in prefix order: variable k is
    ``(k,)``, and a bracket is ``-1`` followed by its arguments, the lesser
    one first, so that tuples compare flat.
    """
    return (sign, (-1,) + a + b) if a < b else (-sign, (-1,) + b + a)


def _expansion(ast: IdentityAst) -> tuple[dict, dict[int, Scalar]] | None:
    index = {name: k for k, name in enumerate(ast.variables)}
    numbers: dict = {k: k for k in range(len(index) + 1)}  # the leaves, then pairs
    poly: dict[int, Scalar] = {}
    try:
        for sign, side in zip((1, -1), _cleared(ast)[1]):
            for c, core in side:
                c *= sign
                for n, d in _expanded(core, index, numbers):
                    poly[n] = poly.get(n, 0) + c * d
    except _TooLarge:
        return None
    return numbers, {n: c for n, c in poly.items() if c}


def _key(ast: IdentityAst) -> tuple | IdentityAst:
    leaf, multiplicities = ast.slots
    if ast.expansion is None:
        return ast
    numbers, poly = ast.expansion
    terms = []
    if poly:
        # number -> (sign, canonical monomial); a pair's numbers come before it
        canonical = [(1, (k,)) for k in range(len(ast.variables) + 1)]
        for a, b in list(numbers)[len(canonical):]:
            (s, a), (t, b) = canonical[a], canonical[b]
            canonical.append(_ordered(s * t, a, b))
        for n, c in poly.items():
            s, m = canonical[n]
            terms.append((m, s * c))
        terms.sort()
        lead = terms[0][1]
        if lead != 1:
            terms = [(m, -c if lead == -1 else _canonical(Fraction(c, lead))) for m, c in terms]
    return tuple(terms), multiplicities, leaf is not None


def _symmetries(ast: IdentityAst) -> tuple[tuple, tuple]:
    """The antisymmetric blocks and the diagonal pairs of a key's program
    (see :class:`Program`); slot k is the key's variable k, or ``_``.

    Two slots of equal multiplicity, not the column slot, are antisymmetric
    when swapping their variables negates the key's polynomial.  Swaps
    compose (the swap of ``a`` and ``c`` is that of ``a`` and ``b``
    conjugated by that of ``b`` and ``c``), so each slot joins the first
    block whose first slot it is antisymmetric to, and a pair of slots in
    two blocks (the column slot and a slot in no block are blocks of their
    own here) is diagonal iff the blocks' first slots are.  For slots of
    multiplicity 1 diagonal is antisymmetric (polarize ``[a,a] = 0``), so
    only the column slot is tested, by a swap; any other pair is renamed.
    Renaming maps each numbered monomial of ``IdentityAst.expansion`` once,
    from its arguments' images.  A key that is its identity has neither.
    """
    if ast.expansion is None:
        return (), ()
    numbers, poly = ast.expansion
    _, multiplicities, column = ast.key
    leaves = len(ast.variables) + 1
    pairs = list(numbers)[leaves:]

    def renamed(images: list[int]) -> Iterator[int]:
        # the image of each numbered monomial, in number order, under a
        # renaming of the leaves (``images``): ±(1 + its number), numbering
        # new monomials past the key's, or 0 where it is 0
        fresh: dict = {}
        yield from images
        for a, b in pairs:
            x, y, s = images[a], images[b], 1
            if x < 0:
                x, s = -x, -s
            if y < 0:
                y, s = -y, -s
            if x == y or not x or not y:  # [a,a] = 0
                image = 0
            else:
                pair = (x - 1, y - 1) if x < y else (y - 1, x - 1)  # [a,b] = -[b,a]
                m = numbers.get(pair)
                if m is None:
                    m = fresh.setdefault(pair, len(numbers) + len(fresh))
                image = (s if x < y else -s) * (m + 1)
            images.append(image)
            yield image

    def antisymmetric(i: int, j: int) -> bool:
        # a swap maps each monomial to ± one, so it negates poly iff it
        # negates each coefficient
        images = list(range(1, leaves + 1))
        images[i], images[j] = j + 1, i + 1
        for n, image in enumerate(renamed(images)):
            c = poly.get(n)
            if c and poly.get(abs(image) - 1) != (-c if image > 0 else c):
                return False
        return True

    def diagonal(i: int, j: int) -> bool:
        images = list(range(1, leaves + 1))
        images[j] = i + 1
        sums: dict[int, Scalar] = {}
        for n, image in enumerate(renamed(images)):
            c = poly.get(n)
            if c and image:
                sums[abs(image)] = sums.get(abs(image), 0) + (c if image > 0 else -c)
        return not any(sums.values())

    classes: list[list[int]] = []
    for j in range(len(multiplicities) - column):
        for block in classes:
            i = block[0]
            if multiplicities[i] == multiplicities[j] and antisymmetric(i, j):
                block.append(j)
                break
        else:
            classes.append([j])
    if column:
        classes.append([len(multiplicities) - 1])
    diagonals = []
    for t, first in enumerate(classes):
        for second in classes[t + 1:]:
            i, j = first[0], second[0]
            if multiplicities[i] == multiplicities[j] == 1:
                tied = second is classes[-1] and column and antisymmetric(i, j)
            else:
                tied = diagonal(i, j)
            if tied:
                diagonals += [(min(a, b), max(a, b)) for a in first for b in second]
    blocks = tuple(tuple(b) for b in classes[:len(classes) - column] if len(b) > 1)
    return blocks, tuple(sorted(diagonals))


def eval_ast(A: Algebra, ast: IdentityAst,
             assignment: Mapping[str, Vector]) -> tuple[Value, Value]:
    """Evaluate both sides exactly under a variable assignment, with the
    one-substitution program ``ast.evaluator``.

    The sides are vectors, or operators when the identity uses ``_``.
    """
    args = []
    for name in ast.variables:
        if name not in assignment:
            raise EvalError(f"missing variable {name!r} in assignment")
        v = assignment[name]
        if v.dim != A.dim:
            raise DimensionMismatch(
                f"eval: variable {name!r} has dim {v.dim}, "
                f"algebra {A.name!r} has dim {A.dim}")
        args.append(v)
    return ast.evaluator.evaluate(A, args)


def check_identity(A: Algebra, ast: IdentityAst, *, exhaustive: bool = False,
                   workers: int = 1, pool: WorkerPool | None = None) -> CheckReport:
    """Check a parsed identity with the same contract as a builtin check."""
    from . import checker  # the checker is the layer above this module
    return checker.run_check(A, format_identity(ast), ast,
                             exhaustive=exhaustive, workers=workers, pool=pool)
