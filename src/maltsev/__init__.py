"""Exact-arithmetic identity checking for anticommutative structure-constant
algebras: Mal'tsev algebras, derived Yamaguti brackets and Yamagutian
operators, general Lie triple systems, and a small DSL for user-written
bracket identities."""

from .catalog import (
    AlgebraFileError,
    builtin,
    full_catalog,
    load_algebra,
    maltsev_catalog,
    save_algebra,
)
from .checker import (
    CheckReport,
    Counterexample,
    EquivalenceReport,
    UnknownIdentityError,
    check_builtin,
    check_equivalence,
    check_glts,
    substitution_count,
    substitution_options,
)
from .core import (
    Algebra,
    DimensionMismatch,
    Operator,
    Scalar,
    Vector,
    bracket,
    format_rational,
    format_vector,
    left_translation,
    operator_commutator,
    parse_rational,
    sixfold_yamagutian,
    yamagutian,
    yamaguti,
)
from .dsl import (
    EvalError,
    IdentityAst,
    IdentitySyntaxError,
    check_identity,
    eval_ast,
    format_identity,
    parse_identity,
    parse_identity_file,
)
from .identities import (
    BUILTIN_IDENTITIES,
    GLTS_AXIOM_IDS,
    MALTSEV_SUITE_IDS,
    BuiltinIdentity,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AlgebraFileError",
    "BUILTIN_IDENTITIES",
    "BuiltinIdentity",
    "CheckReport",
    "Counterexample",
    "DimensionMismatch",
    "EquivalenceReport",
    "EvalError",
    "GLTS_AXIOM_IDS",
    "IdentityAst",
    "IdentitySyntaxError",
    "MALTSEV_SUITE_IDS",
    "Operator",
    "Scalar",
    "UnknownIdentityError",
    "Vector",
    "bracket",
    "builtin",
    "check_builtin",
    "check_equivalence",
    "check_glts",
    "check_identity",
    "eval_ast",
    "format_identity",
    "format_rational",
    "format_vector",
    "full_catalog",
    "left_translation",
    "load_algebra",
    "maltsev_catalog",
    "operator_commutator",
    "parse_identity",
    "parse_identity_file",
    "parse_rational",
    "save_algebra",
    "sixfold_yamagutian",
    "substitution_count",
    "substitution_options",
    "yamagutian",
    "yamaguti",
]
