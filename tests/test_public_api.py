"""The public surface of the package, pinned so that a change to it is deliberate."""
import maltsev

PUBLIC_NAMES = [
    "Algebra", "AlgebraFileError", "BUILTIN_IDENTITIES", "BuiltinIdentity",
    "CheckReport", "Counterexample", "DimensionMismatch", "EquivalenceReport",
    "EvalError", "GLTS_AXIOM_IDS", "IdentityAst", "IdentitySyntaxError",
    "MALTSEV_SUITE_IDS", "Operator", "Scalar", "UnknownIdentityError", "Vector",
    "bracket", "builtin", "check_builtin", "check_equivalence", "check_glts",
    "check_identity", "eval_ast", "format_identity", "format_rational",
    "format_vector", "full_catalog", "left_translation", "load_algebra",
    "maltsev_catalog", "operator_commutator", "parse_identity",
    "parse_identity_file", "parse_rational", "save_algebra", "sixfold_yamagutian",
    "substitution_count", "substitution_options",
    "yamaguti", "yamagutian",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(maltsev.__all__) == PUBLIC_NAMES
    assert len(set(maltsev.__all__)) == len(maltsev.__all__)
    for name in PUBLIC_NAMES:
        assert getattr(maltsev, name) is not None
