"""Command-line front end.

Exit codes follow a CI-friendly contract: 0 when every selected identity
holds, 1 when any check found a violation, 2 on usage, IO or parse errors.
All output is deterministic: identities are reported in sorted order (file
order for DSL identities) and counterexamples are first-in-stream-order
regardless of the worker count.
"""
from __future__ import annotations

import argparse
import json
import sys
from itertools import product
from pathlib import Path

from . import catalog, checker, dsl
from .core import Algebra, DimensionMismatch, Vector, format_rational, format_vector, yamaguti
from .identities import BUILTIN_IDENTITIES, MALTSEV_SUITE_IDS


def _load_algebra_arg(name: str) -> Algebra:
    if name.endswith(catalog.FILE_SUFFIX):
        return catalog.load_algebra(name)
    return catalog.builtin(name)


def _resolve_identities(selected: list[str] | None, have_dsl: bool) -> tuple[str, ...]:
    if not selected:
        return () if have_dsl else tuple(sorted(MALTSEV_SUITE_IDS))
    ids: set[str] = set()
    for s in selected:
        if s == "all":
            ids.update(MALTSEV_SUITE_IDS)
        elif s in BUILTIN_IDENTITIES:
            ids.add(s)
        else:
            raise checker.UnknownIdentityError(
                f"unknown identity {s!r}; known: all, {', '.join(BUILTIN_IDENTITIES)}")
    return tuple(sorted(ids))


def cmd_list(json_output: bool) -> int:
    idents = [{
        "id": ident.id,
        "arity": ident.arity,
        "multiplicities": list(ident.multiplicities),
        "level": ident.level,
        "formula": ident.formula,
        "in_all": ident.id in MALTSEV_SUITE_IDS,
    } for ident in BUILTIN_IDENTITIES.values()]
    if json_output:
        payload = {
            "algebras": [{"name": n, "description": d} for n, d in catalog.BUILTIN_ALGEBRA_DOC],
            "identities": idents,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("builtin algebras:")
    for n, d in catalog.BUILTIN_ALGEBRA_DOC:
        print(f"  {n:12s} {d}")
    print("\nbuiltin identities:")
    for ident in BUILTIN_IDENTITIES.values():
        note = "" if ident.id in MALTSEV_SUITE_IDS else "  (diagnostic, not in 'all')"
        print(f"  {ident.id:24s} {ident.formula}{note}")
    return 0


def _value_lines(A: Algebra, value, indent: str) -> list[str]:
    if isinstance(value, Vector):
        return [f"{indent}{format_vector(A, value)}"]
    return [f"{indent}[{', '.join(format_rational(c) for c in row)}]" for row in value.rows]


def _report_lines(A: Algebra, report: checker.CheckReport) -> list[str]:
    verdict = "holds" if report.holds else "FAILS"
    extra = f", {report.violations} violations" if report.violations is not None else ""
    lines = [f"{report.identity} on {report.algebra}: {verdict} "
             f"({report.substitutions_checked} substitutions{extra})"]
    ce = report.counterexample
    if ce is not None:
        sub = ", ".join(f"{name} = {format_vector(A, v)}" for name, v in ce.substitution)
        lines += [f"  counterexample: {sub}", "  left:", *_value_lines(A, ce.left, "    "),
                  "  right:", *_value_lines(A, ce.right, "    ")]
    return lines


def cmd_check(args: argparse.Namespace) -> int:
    identities = _resolve_identities(args.identity, args.dsl is not None)
    A = _load_algebra_arg(args.algebra)
    reports: list[checker.CheckReport] = []
    # one pool serves every check; it is shut down on every way out
    with checker.WorkerPool(A, args.workers) as pool:
        for ident in identities:
            reports.append(checker.check_builtin(
                A, ident, exhaustive=args.exhaustive, pool=pool))
        if args.dsl is not None:
            text = Path(args.dsl).read_text(encoding="utf-8")
            parsed = dsl.parse_identity_file(text)
            if not parsed and not identities:
                raise ValueError(f"no identities selected: {args.dsl} is empty")
            for _lineno, ast in parsed:
                reports.append(dsl.check_identity(
                    A, ast, exhaustive=args.exhaustive, pool=pool))
    # the whole output is rendered before any of it is written
    if args.json_output:
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
    else:
        print("\n".join(line for r in reports for line in _report_lines(A, r)))
    return 0 if all(r.holds for r in reports) else 1


def cmd_table(algebra: str, ternary: bool, json_output: bool) -> int:
    A = _load_algebra_arg(algebra)
    dim = A.dim
    entries = []
    if ternary:
        for i, j, k in product(range(dim), repeat=3):
            value = yamaguti(A, A.basis_vector(i), A.basis_vector(j), A.basis_vector(k))
            entries.append(((i, j, k), value))
    else:
        for i in range(dim):
            for j in range(i + 1, dim):
                entries.append(((i, j), A.structure_constant(i, j)))
    if json_output:
        payload = {
            "algebra": A.name,
            "kind": "ternary" if ternary else "binary",
            "basis": list(A.basis),
            "entries": [{
                "args": [A.basis[i] for i in idx],
                "coords": [format_rational(c) for c in value.coords],
            } for idx, value in entries],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if entries:  # abelian(1) has no pair
        print("\n".join(f"[{', '.join(A.basis[i] for i in idx)}] = {format_vector(A, value)}"
                        for idx, value in entries))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maltsev",
        description="Exact identity checking for structure-constant algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list builtin algebras and identities") \
       .add_argument("--json", action="store_true", dest="json_output")

    p_check = sub.add_parser("check", help="check identities on an algebra")
    p_check.add_argument("algebra",
                         help=f"builtin name or path ending in {catalog.FILE_SUFFIX}")
    p_check.add_argument("--identity", action="append", metavar="ID",
                         help="builtin identity id, or 'all' (repeatable); "
                              "default: all")
    p_check.add_argument("--dsl", metavar="FILE",
                         help="file of identities, one per line, # comments")
    p_check.add_argument("--json", action="store_true", dest="json_output")
    p_check.add_argument("--exhaustive", action="store_true",
                         help="count every violation instead of stopping at the first")
    p_check.add_argument("--workers", type=int, default=1, metavar="N",
                         help="parallel worker processes (default 1); one pool "
                              "serves every check of the command, started at the "
                              "first check large enough to pool and never larger "
                              "than the CPU count or that check's stream chunks; "
                              "a worker parses each identity text once")

    p_table = sub.add_parser("table", help="print the bracket table")
    p_table.add_argument("algebra",
                         help=f"builtin name or path ending in {catalog.FILE_SUFFIX}")
    p_table.add_argument("--ternary", action="store_true",
                         help="print the derived ternary brackets instead")
    p_table.add_argument("--json", action="store_true", dest="json_output")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "list":
            return cmd_list(args.json_output)
        if args.command == "check":
            if args.workers < 1:
                parser.error("--workers must be >= 1")
            return cmd_check(args)
        if args.command == "table":
            return cmd_table(args.algebra, args.ternary, args.json_output)
        raise AssertionError(f"unhandled command {args.command!r}")
    except SystemExit as exc:  # parser.error inside command dispatch
        return int(exc.code or 0)
    except (OSError, ValueError, DimensionMismatch) as exc:
        # AlgebraFileError, UnknownIdentityError and IdentitySyntaxError are
        # ValueErrors; IO problems are OSErrors.  All are usage-level: exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
