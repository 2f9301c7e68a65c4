"""The builtin identity suite, as DSL text.

Every builtin is one line of the identity grammar (see :mod:`.dsl`) plus a
display formula.  Its variables, multiplicities and level are read from
the parsed text, and its evaluator is the text's compiled program, so
builtin and user identities run through the same compiled evaluator.  A
text that uses the column variable ``_`` is an operator identity, and its
counterexample sides are reported as matrices.

Identities involving the Yamagutian are written with ``Y(x;y) = 1/6*[x,y,_]``
and ``Y(x;y)u = 1/6*[x,y,u]``, so their reports carry the stated sides; the
compiler clears the ``1/6`` before scanning.  ``derivation`` and
``ternary-derivation`` are then the Sagle-Yamaguti and glts-f texts times
``1/6``, and share their scans (see :mod:`.checker`).

``jacobi`` is a Lie-ness diagnostic: genuinely Mal'tsev algebras fail it,
so it is not part of the default "all" selection.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .dsl import IdentityAst, parse_identity


@dataclass(frozen=True)
class BuiltinIdentity:
    id: str
    formula: str  # the identity as stated, for display
    # (algebra, substituted vectors) -> (lhs, rhs) at one substitution: the
    # compiled dsl_text.  The checker does not call it (it scans with
    # ``ast.plan`` and evaluates a counterexample with ``dsl.eval_ast``); it
    # stays for callers, and for perfbench's tracer, which wraps it.
    evaluate: Callable
    dsl_text: str
    ast: IdentityAst = field(kw_only=True, repr=False, compare=False)  # dsl_text parsed

    @property
    def variables(self) -> tuple[str, ...]:
        return self.ast.variables

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return self.ast.multiplicities

    @property
    def level(self) -> str:
        """``"vector"`` or ``"operator"``."""
        return self.ast.level

    @property
    def arity(self) -> int:
        return len(self.variables)


def _builtin(id: str, formula: str, dsl_text: str) -> BuiltinIdentity:
    ast = parse_identity(dsl_text)

    def evaluate(A, args):  # compiles the text on first use, not at import
        return ast.plan.evaluate(A, args)

    return BuiltinIdentity(id=id, formula=formula, evaluate=evaluate, dsl_text=dsl_text,
                           ast=ast)

_IDENTITIES = (
    _builtin(
        id="anticommutativity",
        formula="[x,y] + [y,x] = 0",
        dsl_text="[x,y] + [y,x] = 0",
    ),
    _builtin(
        id="ternary-antisymmetry",
        formula="[x,y,z] + [y,x,z] = 0",
        dsl_text="[x,y,z] + [y,x,z] = 0",
    ),
    _builtin(
        id="glts-c",
        formula="[x,y,z] + [y,z,x] + [z,x,y] + [[x,y],z] + [[y,z],x] + [[z,x],y] = 0",
        dsl_text="[x,y,z] + [y,z,x] + [z,x,y] + [[x,y],z] + [[y,z],x] + [[z,x],y] = 0",
    ),
    _builtin(
        id="glts-d",
        formula="[[x,y],z,u] + [[y,z],x,u] + [[z,x],y,u] = 0",
        dsl_text="[[x,y],z,u] + [[y,z],x,u] + [[z,x],y,u] = 0",
    ),
    _builtin(
        id="sagle-yamaguti",
        formula="[x,y,[z,w]] = [[x,y,z],w] + [z,[x,y,w]]",
        dsl_text="[x,y,[z,w]] = [[x,y,z],w] + [z,[x,y,w]]",
    ),
    _builtin(
        id="glts-f",
        formula="[x,y,[z,w,v]] = [[x,y,z],w,v] + [z,[x,y,w],v] + [z,w,[x,y,v]]",
        dsl_text="[x,y,[z,w,v]] = [[x,y,z],w,v] + [z,[x,y,w],v] + [z,w,[x,y,v]]",
    ),
    _builtin(
        id="yamagutian-antisymmetry",
        formula="Y(x;y) = -Y(y;x)",
        dsl_text="1/6*[x,y,_] = -1/6*[y,x,_]",
    ),
    _builtin(
        id="yamagutian-constraint",
        formula="Y([x,y];z) + Y([y,z];x) + Y([z,x];y) = 0",
        dsl_text="1/6*[[x,y],z,_] + 1/6*[[y,z],x,_] + 1/6*[[z,x],y,_] = 0",
    ),
    _builtin(
        id="derivation",
        formula="Y(x;y)[z,w] = [Y(x;y)z,w] + [z,Y(x;y)w]",
        dsl_text="1/6*[x,y,[z,w]] = 1/6*[[x,y,z],w] + 1/6*[z,[x,y,w]]",
    ),
    _builtin(
        id="reductivity",
        formula="6[Y(x;y), l+_z] = l+_[x,y,z]",
        dsl_text="[x,y,[z,_]] - [z,[x,y,_]] = [[x,y,z],_]",
    ),
    _builtin(
        id="hidden-assoc-operator",
        formula="6[Y(x;y), Y(z;w)] = Y([x,y,z];w) + Y(z;[x,y,w])",
        dsl_text="1/6*[x,y,[z,w,_]] - 1/6*[z,w,[x,y,_]] "
                 "= 1/6*[[x,y,z],w,_] + 1/6*[z,[x,y,w],_]",
    ),
    _builtin(
        id="ternary-derivation",
        formula="Y(x;y)[z,w,v] = [Y(x;y)z,w,v] + [z,Y(x;y)w,v] + [z,w,Y(x;y)v]",
        dsl_text="1/6*[x,y,[z,w,v]] "
                 "= 1/6*[[x,y,z],w,v] + 1/6*[z,[x,y,w],v] + 1/6*[z,w,[x,y,v]]",
    ),
    _builtin(
        id="maltsev",
        formula="[[x,y],[x,z]] = [[[x,y],z],x] + [[[y,z],x],x] + [[[z,x],x],y]",
        dsl_text="[[x,y],[x,z]] = [[[x,y],z],x] + [[[y,z],x],x] + [[[z,x],x],y]",
    ),
    _builtin(
        id="jacobi",
        formula="[[x,y],z] + [[y,z],x] + [[z,x],y] = 0",
        dsl_text="[[x,y],z] + [[y,z],x] + [[z,x],y] = 0",
    ),
)

BUILTIN_IDENTITIES: dict[str, BuiltinIdentity] = {i.id: i for i in _IDENTITIES}

# The six axioms that make a vector space with both brackets a general Lie
# triple system, in their conventional (a)-(f) order.
GLTS_AXIOM_IDS = (
    "anticommutativity",
    "ternary-antisymmetry",
    "glts-c",
    "glts-d",
    "sagle-yamaguti",
    "glts-f",
)

# Everything a Mal'tsev algebra must satisfy; this is what `--identity all`
# selects.  jacobi is excluded on purpose: it is the Lie-vs-Mal'tsev
# diagnostic and fails on genuinely non-Lie Mal'tsev algebras such as m7.
MALTSEV_SUITE_IDS = tuple(i.id for i in _IDENTITIES if i.id != "jacobi")
