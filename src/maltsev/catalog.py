"""Builtin algebras and the on-disk ``.alg.json`` format.

The catalog carries positive controls (``abelian(n)``, the Lie algebras
``so3`` and ``sl2``, and the 7-dimensional Mal'tsev algebra ``m7``) and one
negative control (``nc3``, anticommutative but neither Lie nor Mal'tsev).

``m7`` is generated, not hand-typed: sign conventions for the octonion
multiplication table vary across sources and a typo there would silently
corrupt every downstream check.  Building the octonions by Cayley-Dickson
doubling and reading the commutators of the seven imaginary units off the
product is self-certifying, because the test suite then proves the result
satisfies the Mal'tsev identity and fails the Jacobi identity by brute
force.  The doubling formula is applied to units alone: the product of two
units is a signed unit, found by a recursion of depth 3 on (sign, index)
pairs, and the tests check it against the product of whole octonions.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

from .core import Algebra, Vector, format_rational, parse_rational

BUILTIN_ALGEBRA_DOC = (
    ("abelian(n)", "all brackets zero, any positive dimension n"),
    ("so3", "[e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2"),
    ("sl2", "basis (h,e,f); [h,e]=2e, [h,f]=-2f, [e,f]=h"),
    ("m7", "imaginary octonion commutators (non-Lie Mal'tsev, dim 7)"),
    ("nc3", "[e1,e2]=e1, [e2,e3]=e2, [e3,e1]=e3 (not Mal'tsev)"),
)

FILE_SUFFIX = ".alg.json"

# the bracket table of an algebra holds dim**2 entries, built before any
# check starts; at this dimension a 5-variable identity already has 10**10
# substitutions
MAX_ABELIAN_DIM = 100

_ABELIAN_RE = re.compile(r"^abelian\((-?[0-9]+)\)$")


class AlgebraFileError(ValueError):
    """A .alg.json file failed to parse or validate."""


def builtin(name: str) -> Algebra:
    """Construct a catalog algebra by name."""
    m = _ABELIAN_RE.match(name)
    if m:
        digits = m.group(1)
        n = int(digits) if len(digits.lstrip("-0")) < 4 else MAX_ABELIAN_DIM + 1
        if not 1 <= n <= MAX_ABELIAN_DIM:
            raise ValueError(
                f"abelian dimension must be between 1 and {MAX_ABELIAN_DIM}, got {digits}")
        return Algebra(name, tuple(f"e{i+1}" for i in range(n)), {})
    if name == "so3":
        return Algebra("so3", ("e1", "e2", "e3"), {
            (0, 1): (0, 0, 1),
            (1, 2): (1, 0, 0),
            (0, 2): (0, -1, 0),
        })
    if name == "sl2":
        return Algebra("sl2", ("h", "e", "f"), {
            (0, 1): (0, 2, 0),
            (0, 2): (0, 0, -2),
            (1, 2): (1, 0, 0),
        })
    if name == "m7":
        return _build_m7()
    if name == "nc3":
        return Algebra("nc3", ("e1", "e2", "e3"), {
            (0, 1): (1, 0, 0),
            (1, 2): (0, 1, 0),
            (0, 2): (0, 0, -1),
        })
    raise ValueError(
        f"unknown builtin algebra {name!r}; known: abelian(n), so3, sl2, m7, nc3")


def maltsev_catalog() -> tuple[Algebra, ...]:
    """The catalog algebras that are Mal'tsev (abelian(3) as representative)."""
    return (builtin("abelian(3)"), builtin("so3"), builtin("sl2"), builtin("m7"))


def full_catalog() -> tuple[Algebra, ...]:
    return maltsev_catalog() + (builtin("nc3"),)


# --- octonions by Cayley-Dickson doubling -------------------------------
#
# A pair (a, b) of halves multiplies as (a,b)(c,d) = (ac - d conj(b),
# conj(a) d + c b), with conj(a,b) = (conj(a), -b).  The product of two
# basis units is then a signed unit: e_a = (e_a, 0) for a below the half
# and (0, e_(a-half)) above it, and conj(e_a) = -e_a for every a but 0.

def _cd_unit_mul(a: int, b: int, n: int) -> tuple[int, int]:
    """The product of the units e_a and e_b of the doubled algebra of
    dimension ``n`` (a power of two), as (sign, index)."""
    if n == 1:
        return 1, 0
    h = n // 2
    if a < h and b < h:  # (x,0)(z,0) = (xz, 0)
        return _cd_unit_mul(a, b, h)
    if a < h:  # (x,0)(0,w) = (0, conj(x) w)
        s, c = _cd_unit_mul(a, b - h, h)
        return (s if a == 0 else -s), h + c
    if b < h:  # (0,y)(z,0) = (0, z y)
        s, c = _cd_unit_mul(b, a - h, h)
        return s, h + c
    s, c = _cd_unit_mul(b - h, a - h, h)  # (0,y)(0,w) = (-w conj(y), 0)
    return (-s if a == h else s), c


def _build_m7() -> Algebra:
    pairs = {}
    for i in range(1, 8):
        for j in range(i + 1, 8):
            comm = [0] * 8
            s, k = _cd_unit_mul(i, j, 8)
            comm[k] += s
            s, k = _cd_unit_mul(j, i, 8)
            comm[k] -= s
            if comm[0] != 0:
                raise AssertionError(
                    f"octonion commutator [u{i}, u{j}] left the imaginary span")
            pairs[(i - 1, j - 1)] = tuple(comm[1:])
    return Algebra("m7", tuple(f"e{i}" for i in range(1, 8)), pairs)


# --- file format ---------------------------------------------------------

def algebra_to_data(A: Algebra) -> dict:
    brackets = []
    for (i, j), v in A.pairs():
        result = {str(k): format_rational(c) for k, c in enumerate(v.coords) if c}
        brackets.append({"i": i, "j": j, "result": result})
    return {"name": A.name, "dim": A.dim, "basis": list(A.basis), "brackets": brackets}


def validate_algebra_data(data: object) -> list[str]:
    """All violations of the file schema, with locations; empty means valid."""
    bad = []
    if not isinstance(data, dict):
        return [f"top level: expected an object, got {type(data).__name__}"]
    name = data.get("name")
    if not isinstance(name, str) or not name:
        bad.append("name: expected a non-empty string")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        bad.append("dim: expected a positive integer")
        return bad  # nothing below is checkable without a dim
    basis = data.get("basis")
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(b, str) for b in basis)):
        bad.append(f"basis: expected a list of {dim} labels")
    elif len(set(basis)) != dim:
        bad.append("basis: labels not distinct")
    entries = data.get("brackets", [])
    if not isinstance(entries, list):
        return bad + ["brackets: expected a list"]
    seen = set()
    for n, entry in enumerate(entries):
        loc = f"brackets[{n}]"
        if not isinstance(entry, dict):
            bad.append(f"{loc}: expected an object")
            continue
        i, j = entry.get("i"), entry.get("j")
        if type(i) is not int or type(j) is not int:  # bools are not indices
            bad.append(f"{loc}: i and j must be integers")
            continue
        if not (0 <= i < dim and 0 <= j < dim):
            bad.append(f"{loc}: indices ({i}, {j}) out of range for dim {dim}")
            continue
        if i >= j:
            bad.append(f"{loc}: i must be < j (got i={i}, j={j})")
            continue
        if (i, j) in seen:
            bad.append(f"{loc}: duplicate entry for ({i}, {j})")
        seen.add((i, j))
        result = entry.get("result")
        if not isinstance(result, dict):
            bad.append(f"{loc}.result: expected an object")
            continue
        for key, text in result.items():
            kloc = f"{loc}.result[{key!r}]"
            if not (isinstance(key, str) and re.fullmatch(r"0|-?[1-9][0-9]*", key)):
                bad.append(f"{kloc}: key is not a basis index")
                continue
            k = int(key)
            if not 0 <= k < dim:
                bad.append(f"{kloc}: index {k} out of range for dim {dim}")
            if not isinstance(text, str):
                bad.append(f"{kloc}: expected a rational string")
                continue
            try:
                parse_rational(text)
            except ValueError as exc:
                bad.append(f"{kloc}: {exc}")
    return bad


def data_to_algebra(data: dict, *, source: str = "<data>") -> Algebra:
    violations = validate_algebra_data(data)
    if violations:
        raise AlgebraFileError(f"{source}: " + "; ".join(violations))
    dim = data["dim"]
    brackets = {}
    for entry in data.get("brackets", []):
        coords = [0] * dim
        for key, text in entry["result"].items():
            coords[int(key)] = parse_rational(text)
        brackets[(entry["i"], entry["j"])] = Vector(coords)
    return Algebra(data["name"], tuple(data["basis"]), brackets)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads`` hook: refuse an object that repeats a key (JSON keeps the last)."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r}")
        data[key] = value
    return data


def load_algebra(path: str | Path) -> Algebra:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a JSONDecodeError or a repeated key
        raise AlgebraFileError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise AlgebraFileError(f"{path}: invalid JSON: nested too deeply") from None
    return data_to_algebra(data, source=str(path))


def save_algebra(A: Algebra, path: str | Path) -> None:
    path = Path(path)
    path.write_text(json.dumps(algebra_to_data(A), indent=2) + "\n", encoding="utf-8")
