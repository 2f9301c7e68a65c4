"""The builtin identity suite.

Each identity is a pair of sides evaluated on a variable substitution; the
checker declares it to hold when both sides agree on every polarization
substitution.  Operator-level identities involving the Yamagutian are
evaluated in a 6-scaled integer form (``report_scale`` restores the stated
sides for counterexample reporting; equality is unaffected by a nonzero
global scale).

``jacobi`` is a Lie-ness diagnostic: genuinely Mal'tsev algebras fail it,
so it is not part of the default "all" selection.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Algebra,
    Operator,
    Scalar,
    Vector,
    bracket,
    left_translation,
    operator_commutator,
    sixfold_yamagutian,
    yamaguti,
)

Value = Vector | Operator
Evaluator = Callable[[Algebra, tuple[Vector, ...]], tuple[Value, Value]]


@dataclass(frozen=True)
class BuiltinIdentity:
    id: str
    variables: tuple[str, ...]
    multiplicities: tuple[int, ...]
    level: str  # "vector" or "operator"
    formula: str
    evaluate: Evaluator
    # Exact statement of the same identity in the DSL grammar, when the
    # grammar can express it (operator-level identities cannot be).
    dsl_text: str | None = None
    # True sides = report_scale * evaluated sides (evaluation may be scaled
    # to keep the arithmetic integral).
    report_scale: Scalar = 1

    @property
    def arity(self) -> int:
        return len(self.variables)


def _ev_anticommutativity(A, a):
    x, y = a
    return bracket(A, x, y) + bracket(A, y, x), Vector.zero(A.dim)


def _ev_ternary_antisymmetry(A, a):
    x, y, z = a
    return yamaguti(A, x, y, z) + yamaguti(A, y, x, z), Vector.zero(A.dim)


def _ev_glts_c(A, a):
    x, y, z = a
    lhs = (yamaguti(A, x, y, z) + yamaguti(A, y, z, x) + yamaguti(A, z, x, y)
           + bracket(A, bracket(A, x, y), z)
           + bracket(A, bracket(A, y, z), x)
           + bracket(A, bracket(A, z, x), y))
    return lhs, Vector.zero(A.dim)


def _ev_glts_d(A, a):
    x, y, z, u = a
    lhs = (yamaguti(A, bracket(A, x, y), z, u)
           + yamaguti(A, bracket(A, y, z), x, u)
           + yamaguti(A, bracket(A, z, x), y, u))
    return lhs, Vector.zero(A.dim)


def _ev_sagle_yamaguti(A, a):
    x, y, z, w = a
    lhs = yamaguti(A, x, y, bracket(A, z, w))
    rhs = bracket(A, yamaguti(A, x, y, z), w) + bracket(A, z, yamaguti(A, x, y, w))
    return lhs, rhs


def _ev_glts_f(A, a):
    x, y, z, w, v = a
    lhs = yamaguti(A, x, y, yamaguti(A, z, w, v))
    rhs = (yamaguti(A, yamaguti(A, x, y, z), w, v)
           + yamaguti(A, z, yamaguti(A, x, y, w), v)
           + yamaguti(A, z, w, yamaguti(A, x, y, v)))
    return lhs, rhs


def _ev_yamagutian_antisymmetry(A, a):
    x, y = a
    return sixfold_yamagutian(A, x, y), -sixfold_yamagutian(A, y, x)


def _ev_yamagutian_constraint(A, a):
    x, y, z = a
    lhs = (sixfold_yamagutian(A, bracket(A, x, y), z)
           + sixfold_yamagutian(A, bracket(A, y, z), x)
           + sixfold_yamagutian(A, bracket(A, z, x), y))
    return lhs, Operator.zero(A.dim)


def _ev_derivation(A, a):
    x, y, z, w = a
    Y6 = sixfold_yamagutian(A, x, y)
    lhs = Y6.apply(bracket(A, z, w))
    rhs = bracket(A, Y6.apply(z), w) + bracket(A, z, Y6.apply(w))
    return lhs, rhs


def _ev_reductivity(A, a):
    x, y, z = a
    lhs = operator_commutator(sixfold_yamagutian(A, x, y), left_translation(A, z))
    rhs = left_translation(A, yamaguti(A, x, y, z))
    return lhs, rhs


def _ev_hidden_assoc_operator(A, a):
    x, y, z, w = a
    lhs = operator_commutator(sixfold_yamagutian(A, x, y), sixfold_yamagutian(A, z, w))
    rhs = (sixfold_yamagutian(A, yamaguti(A, x, y, z), w)
           + sixfold_yamagutian(A, z, yamaguti(A, x, y, w)))
    return lhs, rhs


def _ev_ternary_derivation(A, a):
    x, y, z, w, v = a
    Y6 = sixfold_yamagutian(A, x, y)
    lhs = Y6.apply(yamaguti(A, z, w, v))
    rhs = (yamaguti(A, Y6.apply(z), w, v)
           + yamaguti(A, z, Y6.apply(w), v)
           + yamaguti(A, z, w, Y6.apply(v)))
    return lhs, rhs


def _ev_maltsev(A, a):
    x, y, z = a
    lhs = bracket(A, bracket(A, x, y), bracket(A, x, z))
    rhs = (bracket(A, bracket(A, bracket(A, x, y), z), x)
           + bracket(A, bracket(A, bracket(A, y, z), x), x)
           + bracket(A, bracket(A, bracket(A, z, x), x), y))
    return lhs, rhs


def _ev_jacobi(A, a):
    x, y, z = a
    lhs = (bracket(A, bracket(A, x, y), z)
           + bracket(A, bracket(A, y, z), x)
           + bracket(A, bracket(A, z, x), y))
    return lhs, Vector.zero(A.dim)


_SIXTH = Fraction(1, 6)

_IDENTITIES = (
    BuiltinIdentity(
        id="anticommutativity",
        variables=("x", "y"),
        multiplicities=(1, 1),
        level="vector",
        formula="[x,y] + [y,x] = 0",
        evaluate=_ev_anticommutativity,
        dsl_text="[x,y] + [y,x] = 0",
    ),
    BuiltinIdentity(
        id="ternary-antisymmetry",
        variables=("x", "y", "z"),
        multiplicities=(1, 1, 1),
        level="vector",
        formula="[x,y,z] + [y,x,z] = 0",
        evaluate=_ev_ternary_antisymmetry,
        dsl_text="[x,y,z] + [y,x,z] = 0",
    ),
    BuiltinIdentity(
        id="glts-c",
        variables=("x", "y", "z"),
        multiplicities=(1, 1, 1),
        level="vector",
        formula="[x,y,z] + [y,z,x] + [z,x,y] + [[x,y],z] + [[y,z],x] + [[z,x],y] = 0",
        evaluate=_ev_glts_c,
        dsl_text="[x,y,z] + [y,z,x] + [z,x,y] + [[x,y],z] + [[y,z],x] + [[z,x],y] = 0",
    ),
    BuiltinIdentity(
        id="glts-d",
        variables=("x", "y", "z", "u"),
        multiplicities=(1, 1, 1, 1),
        level="vector",
        formula="[[x,y],z,u] + [[y,z],x,u] + [[z,x],y,u] = 0",
        evaluate=_ev_glts_d,
        dsl_text="[[x,y],z,u] + [[y,z],x,u] + [[z,x],y,u] = 0",
    ),
    BuiltinIdentity(
        id="sagle-yamaguti",
        variables=("x", "y", "z", "w"),
        multiplicities=(1, 1, 1, 1),
        level="vector",
        formula="[x,y,[z,w]] = [[x,y,z],w] + [z,[x,y,w]]",
        evaluate=_ev_sagle_yamaguti,
        dsl_text="[x,y,[z,w]] = [[x,y,z],w] + [z,[x,y,w]]",
    ),
    BuiltinIdentity(
        id="glts-f",
        variables=("x", "y", "z", "w", "v"),
        multiplicities=(1, 1, 1, 1, 1),
        level="vector",
        formula="[x,y,[z,w,v]] = [[x,y,z],w,v] + [z,[x,y,w],v] + [z,w,[x,y,v]]",
        evaluate=_ev_glts_f,
        dsl_text="[x,y,[z,w,v]] = [[x,y,z],w,v] + [z,[x,y,w],v] + [z,w,[x,y,v]]",
    ),
    BuiltinIdentity(
        id="yamagutian-antisymmetry",
        variables=("x", "y"),
        multiplicities=(1, 1),
        level="operator",
        formula="Y(x;y) = -Y(y;x)",
        evaluate=_ev_yamagutian_antisymmetry,
        report_scale=_SIXTH,
    ),
    BuiltinIdentity(
        id="yamagutian-constraint",
        variables=("x", "y", "z"),
        multiplicities=(1, 1, 1),
        level="operator",
        formula="Y([x,y];z) + Y([y,z];x) + Y([z,x];y) = 0",
        evaluate=_ev_yamagutian_constraint,
        report_scale=_SIXTH,
    ),
    BuiltinIdentity(
        id="derivation",
        variables=("x", "y", "z", "w"),
        multiplicities=(1, 1, 1, 1),
        level="vector",
        formula="Y(x;y)[z,w] = [Y(x;y)z,w] + [z,Y(x;y)w]",
        evaluate=_ev_derivation,
        dsl_text="1/6*[x,y,[z,w]] = 1/6*[[x,y,z],w] + 1/6*[z,[x,y,w]]",
        report_scale=_SIXTH,
    ),
    BuiltinIdentity(
        id="reductivity",
        variables=("x", "y", "z"),
        multiplicities=(1, 1, 1),
        level="operator",
        formula="6[Y(x;y), l+_z] = l+_[x,y,z]",
        evaluate=_ev_reductivity,
    ),
    BuiltinIdentity(
        id="hidden-assoc-operator",
        variables=("x", "y", "z", "w"),
        multiplicities=(1, 1, 1, 1),
        level="operator",
        formula="6[Y(x;y), Y(z;w)] = Y([x,y,z];w) + Y(z;[x,y,w])",
        evaluate=_ev_hidden_assoc_operator,
        report_scale=_SIXTH,
    ),
    BuiltinIdentity(
        id="ternary-derivation",
        variables=("x", "y", "z", "w", "v"),
        multiplicities=(1, 1, 1, 1, 1),
        level="vector",
        formula="Y(x;y)[z,w,v] = [Y(x;y)z,w,v] + [z,Y(x;y)w,v] + [z,w,Y(x;y)v]",
        evaluate=_ev_ternary_derivation,
        dsl_text=("1/6*[x,y,[z,w,v]] = 1/6*[[x,y,z],w,v]"
                  " + 1/6*[z,[x,y,w],v] + 1/6*[z,w,[x,y,v]]"),
        report_scale=_SIXTH,
    ),
    BuiltinIdentity(
        id="maltsev",
        variables=("x", "y", "z"),
        multiplicities=(2, 1, 1),
        level="vector",
        formula="[[x,y],[x,z]] = [[[x,y],z],x] + [[[y,z],x],x] + [[[z,x],x],y]",
        evaluate=_ev_maltsev,
        dsl_text="[[x,y],[x,z]] = [[[x,y],z],x] + [[[y,z],x],x] + [[[z,x],x],y]",
    ),
    BuiltinIdentity(
        id="jacobi",
        variables=("x", "y", "z"),
        multiplicities=(1, 1, 1),
        level="vector",
        formula="[[x,y],z] + [[y,z],x] + [[z,x],y] = 0",
        evaluate=_ev_jacobi,
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


def identity_ids() -> tuple[str, ...]:
    return tuple(BUILTIN_IDENTITIES)
