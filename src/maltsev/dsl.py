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

A *column program* compares two operator sides column by column.  An
operator identity compiles into one whose prefix is all of its variables:
its stream is every substitution followed by ``_ = e_0 ... e_{d-1}``, and a
substitution violates iff one of its columns does.  A vector identity whose
last variable ``v`` stands only where ``_`` may stand compiles with ``v`` as
``_``, and its scan compares column l of the two operator sides, once per
prefix, where it would compare the sides at ``v = e_l``.  By polarization
that is exact: ``v`` has multiplicity 1, so its options are
``e_0 ... e_{d-1}`` in order, and each side is linear in ``v``, so its value
at ``e_l`` is its column l.  That rule is tested on the *oriented* sides:
each binary bracket ``[a,b]`` around ``v`` whose first argument holds it is
written ``-[b,a]``, the signs collected in the term's top-level coefficient,
which changes no term's value in an anticommutative algebra (ternary
brackets are not reordered).  The arithmetic is exact, so every value,
count and first counterexample equals that of evaluating each substitution
afresh.

``IdentityAst.key`` names the scan a check needs.  LHS - RHS, oriented
when its last variable is column-compiled, is expanded multilinearly into a
sum of monomials in two free brackets, binary and ternary (no further
anticommutativity), with a column-compiled last variable written as ``_``
and the other variables renamed by position, then divided by its
first coefficient; the key is that polynomial with the program's slot
multiplicities and column flag.  Two identities with equal keys have sides
whose differences are proportional at every substitution, so they violate
at the same stream indices: an operator identity and the vector identity
whose last variable is its ``_`` (its *twin*) share one scan, and so do
``1/6*`` texts and their integer forms.  An identity with a bracket whose
expansion would exceed :data:`MAX_MONOMIALS` monomials is not expanded; it
is its own key, so the key costs at most about that much per bracket.
Builtin and user identities are checked through that one program.

``Program.blocks`` are the key's *antisymmetric blocks*: sets of variables,
none of them column-compiled, any two of which negate the key's polynomial
when swapped, once it is reduced modulo ``[a,b] = -[b,a]`` and
``[a,b,c] = -[b,a,c]``, as every :class:`Algebra` is.  The violations are
then closed under permuting each block, and none gives two variables of a
block equal values, since there LHS - RHS equals its negative.  So a scan
visits only the *canonical* substitutions, whose option indices increase
along each block, and counts each violation it finds as its orbit of
``Program.orbit`` (the product of the blocks' factorials).  A violation's
first orbit member in stream order is canonical, so the first violation
and every report stay those of the unreduced scan.
"""
from __future__ import annotations

import math
import operator
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import product
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
    def slots(self) -> tuple[Expr | None, tuple[int, ...], tuple[Expr, Expr]]:
        """The column leaf, the slot multiplicities and the sides to compile."""
        return _slots(self)

    @cached_property
    def plan(self) -> Program:
        """Both sides compiled into one staged program (see :class:`Program`)."""
        return _compile(self)

    @cached_property
    def key(self) -> tuple | IdentityAst:
        """Equal for identities that one scan serves (see the module docstring)."""
        return _key(self)


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


def _in_column(term: Expr, leaf: Expr) -> bool:
    """Whether ``term`` holds ``leaf`` once, last in each bracket around it, in no sum."""
    while isinstance(term, (Scale, Bracket)):
        if isinstance(term, Scale):
            term = term.child
        elif any(leaf in _walk(a) for a in term.args[:-1]):
            return False
        else:
            term = term.args[-1]
    return term == leaf


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
    negates LHS - RHS in every anticommutative algebra (see ``_blocks``).

    ``memos`` holds the *memo steps*: linear maps that leave out a slot
    below their level.  Until a slot at or before ``memo_from`` advances,
    no memo step meets the same option indices of its slots twice; from
    then on a scan runs each once per such indices and keeps its values in
    a table of its own, of at most the product of those slots' option
    counts.
    """

    def __init__(self, multiplicities: Sequence[int], steps: Sequence[tuple[int, Callable]],
                 levels: Sequence[int], lhs: int, rhs: int, column: bool, scale: Scalar,
                 blocks: Sequence[tuple[int, ...]], memos: Mapping[int, tuple[int, ...]]):
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
        # memos: (register, step, the slots it reads) of each memo step;
        # memo_from: the last slot below a memo step's level that it does not read
        self.memos = tuple((out, step, memos[out]) for out, step in steps if out in memos)
        self.memo_from = max((k for out, _, read in self.memos for k in range(levels[out])
                              if k not in read), default=-1)

    def evaluate(self, A: Algebra, args: Sequence[Vector]) -> tuple[Value, Value]:
        """Both sides at one substitution (vectors in ``variables`` order).

        A column program given a vector for its ``_`` slot applies its
        operator sides to it; given one vector fewer, it returns them.
        """
        r = [*args, *[None] * (self.size - len(args))]
        # a step's level is at least its operands', so no step of runs[0]
        # uses one of inner
        for out, step in (*self.runs[0], *self.inner):
            r[out] = step(A, r)
        left, right = r[self.lhs], r[self.rhs]
        if self.column and len(args) == self.nvars:
            left, right = left.apply(args[-1]), right.apply(args[-1])
        if self.scale != 1:
            left, right = self.scale * left, self.scale * right
        return left, right

    def scan(self, A: Algebra, options: Sequence[Sequence[Vector]], start: int, stop: int,
             exhaustive: bool) -> tuple[int | None, int, int]:
        """Scan the canonical substitutions in [start, stop) of the product of ``options``.

        ``options`` holds one option list per slot, the last slot fastest,
        and ``stop`` is at most the product's length.  Returns the first
        canonical violating stream index (or None), the number of canonical
        violations and of *prefixes* (values of every slot but the last)
        holding one, each times ``orbit``: stream positions only, which the
        caller decodes into a substitution.  Without ``exhaustive`` the scan
        ends at the first violation.  Scans of consecutive ranges find the
        stream's first violation, and their counts add up to the stream's
        (see the module docstring).  A column program compares column i of
        its operator sides where a vector program compares the sides at i.
        """
        if start >= stop:
            return None, 0, 0
        n, runs, inner, lhs, rhs = self.nvars, self.runs, self.inner, self.lhs, self.rhs
        if not n:
            left, right = self.evaluate(A, ())
            return (None, 0, 0) if left == right else (start, 1, 1)
        prev = self.prev
        top = [len(o) - 1 - a for o, a in zip(options, self.after)]  # highest canonical index
        if min(top) < 0:  # a block has more slots than options: nothing is canonical
            return None, 0, 0
        strides = [1] * n  # stream index step of each slot
        for k in reversed(range(n - 1)):
            strides[k] = strides[k + 1] * len(options[k + 1])
        idx = [0] * n  # the current option index of each slot
        rem = start
        for k in reversed(range(n)):
            rem, idx[k] = divmod(rem, len(options[k]))
        # move to the first canonical substitution at or after start
        for k in range(n):
            if idx[k] > top[k]:  # no canonical one agrees with idx on slots 0..k
                if _advance(idx, k - 1, prev, top) < 0:
                    return None, 0, 0
                break
            if prev[k] >= 0 and idx[k] <= idx[prev[k]]:
                idx[k] = idx[prev[k]]  # one below the lowest canonical index
                _advance(idx, k, prev, top)
                break
        last = n - 1
        base = sum(map(operator.mul, idx[:last], strides))  # stream index of the prefix
        if base + idx[last] >= stop:
            return None, 0, 0
        r = [o[i] for o, i in zip(options, idx)] + [None] * (self.size - n)
        fastest = options[last]
        first, nviol, nprefixes, level = None, 0, 0, 0
        memo_from = self.memo_from
        while True:
            for out, step in runs[level]:
                r[out] = step(A, r)
            end = min(len(fastest), stop - base)
            if self.column:
                bad = [i for i in range(idx[last], end) if r[lhs].column(i) != r[rhs].column(i)]
            else:
                bad = []
                for i in range(idx[last], end):
                    r[last] = fastest[i]
                    for out, step in inner:
                        r[out] = step(A, r)
                    if r[lhs] != r[rhs]:
                        bad.append(i)
                        if not exhaustive:
                            break
            if bad:
                if first is None:
                    first = base + bad[0]
                if not exhaustive:
                    return first, 1, 1
                nviol += len(bad)
                nprefixes += 1
            k = _advance(idx, last - 1, prev, top)
            base = sum(map(operator.mul, idx[:last], strides))
            if k < 0 or base + idx[last] >= stop:
                return first, nviol * self.orbit, nprefixes * self.orbit
            for j in range(k, last):
                r[j] = options[j][idx[j]]
            if k <= memo_from:  # a memo step's value may now repeat
                memo = {out: (out, _memoized(step, slots, idx, {}))
                        for out, step, slots in self.memos}
                runs, memo_from = [[memo.get(s[0], s) for s in run] for run in runs], -1
            level = k + 1


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


def _rebuilt(side: Expr, rewrite: Callable[[Scalar, Expr], tuple[Scalar, Expr]]) -> Expr:
    """``side`` with each additive term ``c * t`` (``c`` its top-level
    coefficient) replaced by ``rewrite(c, t)``."""
    terms = []
    for t in _additive_terms(side):
        c, core = rewrite(*_top_coefficient(t))
        terms.append(core if c == 1 else Scale(c, core))
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def _oriented(leaf: Var, c: Scalar, node: Expr) -> tuple[Scalar, Expr]:
    """``(d, n)`` with ``c * node = d * n`` in every anticommutative algebra:
    each binary bracket ``[a,b]`` around ``leaf`` whose first argument holds
    it becomes ``-[b,a]``."""
    if isinstance(node, Scale):
        c, child = _oriented(leaf, c, node.child)
        return c, Scale(node.coeff, child)
    if not isinstance(node, Bracket):
        return c, node
    *front, last = node.args
    if len(front) == 1 and leaf in _walk(front[0]):
        front, last, c = [last], front[0], -c
    c, last = _oriented(leaf, c, last)
    return c, Bracket((*front, last))


def _slots(ast: IdentityAst) -> tuple[Expr | None, tuple[int, ...], tuple[Expr, Expr]]:
    """The column leaf (``_``, the last variable or None), the slot
    multiplicities and the sides to compile: oriented when the last variable
    is the leaf (see the module docstring)."""
    sides = (ast.lhs, ast.rhs)
    if ast.level == "operator":
        return Column(), (*ast.multiplicities, 1), sides
    if ast.variables:
        leaf = Var(ast.variables[-1])
        oriented = tuple(_rebuilt(side, partial(_oriented, leaf)) for side in sides)
        if all(  # a literal 0 may follow a minus
                _in_column(t, leaf) or t in (Sum(()), Scale(-1, Sum(())))
                for side in oriented for t in _additive_terms(side)):
            return leaf, ast.multiplicities, oriented
    return None, ast.multiplicities, sides


def _compile(ast: IdentityAst) -> Program:
    """Compile both sides into one staged program.

    A bracket on vectors whose last argument has a higher level than the
    others is split into the operator ``l+_a`` or ``6Y(a;b)``, built at the
    level of ``a`` and ``b``, and its ``apply`` at the level of the last
    argument; the operator's columns, filled on first use, then serve every
    value the last argument takes before ``a`` or ``b`` change, and an
    operator that leaves out a slower slot is a memo step (see :class:`Program`).
    """
    leaf, multiplicities, sides = ast.slots
    column = leaf is not None
    lcm = math.lcm(*(Fraction(_top_coefficient(t)[0]).denominator
                     for side in sides for t in _additive_terms(side)))
    if lcm != 1:
        sides = tuple(_rebuilt(side, lambda c, core: (int(c * lcm), core)) for side in sides)
    index = {name: i for i, name in enumerate(ast.variables)}
    levels = list(range(1, len(multiplicities) + 1))  # register -> level
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

    def compile_node(node: Expr, zero: type) -> tuple[int, bool]:
        """The register of ``node`` and whether it holds an operator."""
        if column and node == leaf:
            return emit(_identity_step, ()), True
        if isinstance(node, Var):
            return index[node.name], False
        if isinstance(node, Scale):
            reg, is_operator = compile_node(node.child, zero)
            return emit(_scale_step, (reg,), node.coeff), is_operator
        if isinstance(node, Sum):
            if not node.terms:
                return emit(_zero_step, (), zero), zero is Operator
            acc, is_operator = compile_node(node.terms[0], zero)
            for t in node.terms[1:]:
                if isinstance(t, Scale) and t.coeff == -1:
                    acc = emit(_sub_step, (acc, compile_node(t.child, zero)[0]))
                else:
                    acc = emit(_add_step, (acc, compile_node(t, zero)[0]))
            return acc, is_operator
        *front, last = node.args
        front = tuple(compile_node(a, Vector)[0] for a in front)
        linear = _left_translation_step if len(front) == 1 else _sixfold_yamagutian_step
        if column and last == leaf:
            return emit(linear, front), True
        reg, is_operator = compile_node(last, Vector)
        if is_operator:
            return compose(emit(linear, front), reg), True
        if levels[reg] > max(levels[i] for i in front):
            return emit(_apply_step, (emit(linear, front), reg)), False
        return emit(_bracket_step if len(front) == 1 else _yamaguti_step, (*front, reg)), False

    zero = Operator if column else Vector
    lhs, rhs = (compile_node(side, zero)[0] for side in sides)
    # regrouping leaves compositions that no side reads: drop them (a step's
    # operands come before it)
    operands = {out: key[2] for key, out in registers.items()}
    live = {lhs, rhs}
    for out, _ in reversed(steps):
        if out in live:
            live.update(operands[out])
    steps = [step for step in steps if step[0] in live]
    return Program(multiplicities, steps, levels, lhs, rhs, column,
                   Fraction(1, lcm) if lcm != 1 else 1, _blocks(ast.key), memos)


class _TooLarge(Exception):
    pass


Monomial = Union[str, tuple["Monomial", ...]]


def _expand(node: Expr, names: Mapping[str, str]) -> dict[Monomial, Scalar]:
    """``node`` as {monomial: coefficient}, brackets kept as free symbols.

    A monomial is a variable's name in ``names``, ``"_"``, or a bracket: the
    tuple of its arguments' monomials.
    """
    if isinstance(node, Var):
        return {names[node.name]: 1}
    if isinstance(node, Column):
        return {"_": 1}
    if isinstance(node, Scale):
        return {m: node.coeff * c for m, c in _expand(node.child, names).items()}
    if isinstance(node, Sum):
        out: dict[Monomial, Scalar] = {}
        for t in node.terms:
            for m, c in _expand(t, names).items():
                out[m] = out.get(m, 0) + c
        return out
    args = [_expand(a, names) for a in node.args]
    if math.prod(map(len, args)) > MAX_MONOMIALS:
        raise _TooLarge
    return {tuple(m for m, _ in mono): math.prod(c for _, c in mono)
            for mono in product(*(a.items() for a in args))}


def _key(ast: IdentityAst) -> tuple | IdentityAst:
    leaf, multiplicities, (lhs, rhs) = ast.slots
    names = {name: f"v{i}" for i, name in enumerate(ast.variables)}
    if isinstance(leaf, Var):  # the last variable is "_"
        names[leaf.name] = "_"
    try:
        poly = _expand(lhs, names)
        for m, c in _expand(rhs, names).items():
            poly[m] = poly.get(m, 0) - c
    except _TooLarge:
        return ast
    terms = sorted(((m, c) for m, c in poly.items() if c), key=lambda t: str(t[0]))
    if terms:
        lead = Fraction(terms[0][1])
        terms = [(m, _canonical(c / lead)) for m, c in terms]
    return tuple(terms), multiplicities, leaf is not None


def _reduced(monomial: Monomial, names: Mapping[str, str]) -> tuple[int, str]:
    """``monomial`` with its variables renamed by ``names``, modulo
    ``[a,b] = -[b,a]`` and ``[a,b,c] = -[b,a,c]``: a sign and the text whose
    brackets have their first two arguments in increasing order.  The sign
    is 0 when the monomial vanishes, with two equal first arguments."""
    if isinstance(monomial, str):
        return 1, names.get(monomial, monomial)
    (s, a), (t, b), *rest = (_reduced(m, names) for m in monomial)
    if a == b:
        return 0, ""
    sign = s * t * math.prod(u for u, _ in rest)
    if a > b:
        a, b, sign = b, a, -sign
    return sign, "[" + ",".join((a, b, *(text for _, text in rest))) + "]"


def _blocks(key: tuple | IdentityAst) -> tuple[tuple[int, ...], ...]:
    """The antisymmetric blocks of a key's program (see :class:`Program`).

    Slot k other than ``_`` is the key's variable ``v<k>``.  Two such slots
    of equal multiplicity are antisymmetric when swapping their variables
    maps the key's polynomial, reduced by :func:`_reduced`, to its
    negative; a block is a class of slots whose every pair is antisymmetric.
    Swaps compose (the swap of ``a`` and ``c`` is that of ``a`` and ``b``
    conjugated by that of ``b`` and ``c``), so each slot joins the first
    block whose first slot it is antisymmetric to.  An identity that is its
    own key has no blocks.
    """
    if isinstance(key, IdentityAst):
        return ()
    terms, multiplicities, column = key

    def reduced(names):
        poly: dict[str, Scalar] = {}
        for m, c in terms:
            sign, text = _reduced(m, names)
            if sign:
                poly[text] = poly.get(text, 0) + sign * c
        return {text: c for text, c in poly.items() if c}

    minus = {text: -c for text, c in reduced({}).items()}
    blocks: list[list[int]] = []
    for j in range(len(multiplicities) - column):
        for block in blocks:
            i = block[0]
            if (multiplicities[i] == multiplicities[j]
                    and reduced({f"v{i}": f"v{j}", f"v{j}": f"v{i}"}) == minus):
                block.append(j)
                break
        else:
            blocks.append([j])
    return tuple(tuple(b) for b in blocks if len(b) > 1)


def eval_ast(A: Algebra, ast: IdentityAst,
             assignment: Mapping[str, Vector]) -> tuple[Value, Value]:
    """Evaluate both sides exactly under a variable assignment.

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
    return ast.plan.evaluate(A, args)


def check_identity(A: Algebra, ast: IdentityAst, *, exhaustive: bool = False,
                   workers: int = 1, pool: WorkerPool | None = None) -> CheckReport:
    """Check a parsed identity with the same contract as a builtin check."""
    from . import checker  # the checker is the layer above this module
    return checker.run_check(A, format_identity(ast), ast,
                             exhaustive=exhaustive, workers=workers, pool=pool)
