"""Exact rational vectors, operators and structure-constant algebras.

An :class:`Algebra` is a finite-dimensional anticommutative algebra given by
its structure constants over the rationals: ``[e_i, e_j] = sum_k c_ijk e_k``.
Only the pairs ``i < j`` are stored, so antisymmetry holds by construction.

On top of the binary bracket the module derives

* the ternary bracket ``[x,y,z] = [x,[y,z]] - [y,[x,z]] + [[x,y],z]``,
* the left translation ``l+_x : y -> [x,y]`` as an operator,
* the operator ``Y(x;y) = (1/6)([l+_x, l+_y] + l+_[x,y])``, which acts as
  ``(1/6)[x,y,.]`` on any algebra (this is an identity of the definitions,
  not a property of the algebra).

Both ternary primitives are contractions of one derived table: for each
basis pair ``i < j`` an algebra keeps the columns ``[e_i, e_j, e_l]``
(equivalently the matrix of ``6 Y(e_i; e_j)``), computed from the structure
constants the first time the pair is used.  ``[e_j, e_i, .] = -[e_i, e_j, .]``
and ``[e_i, e_i, .] = 0`` hold in every anticommutative algebra, so the other
pairs are never stored.  ``yamaguti`` is then a trilinear and
``sixfold_yamagutian`` a bilinear sum over that table, with exactly the
values of the definitions above.  The table is sparse and keeps only
nonzero entries: a fully filled one holds at most ``dim**3 * (dim - 1) / 2``
scalars, O(dim^4), and an algebra whose ternary brackets are never asked for
holds nothing.

An :class:`Operator` is stored by columns, and every operator an operation
returns computes column l the first time it is needed: ``left_translation``
and ``sixfold_yamagutian`` ``[x, e_l]`` from the structure constants or
``[x, y, e_l]`` from the table, a sum, difference or scaling from column l
of its operands, and ``P @ Q`` by applying ``P`` to column l of ``Q`` (so
application and composition share one kernel).  An operator applied to one
vector costs about one ``bracket`` or ``yamaguti`` call, and one column of a
composed operator costs only the columns it reads.

All values are immutable after construction and all operations are pure;
scalars are Python ints or ``fractions.Fraction`` (always in lowest terms),
so equality is exact and no tolerances appear anywhere.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import add, matmul, mul, neg, sub
from typing import Iterable, Iterator, Mapping

Scalar = int | Fraction

_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([+-]?[0-9]+))?$")


class DimensionMismatch(ValueError):
    """Operands of incompatible dimension were combined."""


def parse_rational(text: str) -> Scalar:
    """Parse ``"p"`` or ``"p/q"`` into an exact scalar.

    Only integer and integer/integer forms are accepted; anything float-ish
    is rejected so exactness can never silently degrade.
    """
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"bad rational {text!r} (expected 'p' or 'p/q')")
    p = int(m.group(1))
    if m.group(2) is None:
        return p
    q = int(m.group(2))
    if q == 0:
        raise ValueError(f"bad rational {text!r} (zero denominator)")
    return _canonical(Fraction(p, q))


def format_rational(x: Scalar) -> str:
    if type(x) is not int:  # isinstance(x, Fraction) is slow for an int
        if isinstance(x, Fraction) and x.denominator != 1:
            return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"
        x = int(x)
    try:
        return str(x)
    except ValueError:
        return _decimal(x)


def _decimal(n: int) -> str:
    """``str(n)``, in halves where ``n`` has more digits than ``str`` converts."""
    try:
        return str(n)
    except ValueError:
        width = n.bit_length() * 3 // 20  # about half the digits
        high, low = divmod(abs(n), 10 ** width)
        return "-" * (n < 0) + _decimal(high) + _decimal(low).zfill(width)


def _canonical(x: Fraction) -> Scalar:
    return int(x) if x.denominator == 1 else x


def _check_scalar(c: object) -> Scalar:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"not an exact scalar: {c!r} (use int or Fraction)")
    return c


class Vector:
    """Immutable exact coordinate vector."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Scalar]):
        coords = tuple(coords)
        if not coords:
            raise ValueError("vector must have positive dimension")
        for c in coords:
            _check_scalar(c)
        self.coords = coords

    @classmethod
    def _raw(cls, coords: tuple[Scalar, ...]) -> Vector:
        v = object.__new__(cls)
        v.coords = coords
        return v

    @classmethod
    def zero(cls, dim: int) -> Vector:
        if dim < 1:
            raise ValueError("dimension must be positive")
        return cls._raw((0,) * dim)

    @classmethod
    def basis(cls, dim: int, k: int) -> Vector:
        if not 0 <= k < dim:
            raise ValueError(f"basis index {k} out of range for dim {dim}")
        return cls._raw(tuple(1 if i == k else 0 for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: Vector) -> Vector:
        if not isinstance(other, Vector):
            return NotImplemented
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch(
                f"vector addition: dims {self.dim} and {other.dim} differ")
        return Vector._raw(tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: Vector) -> Vector:
        if not isinstance(other, Vector):
            return NotImplemented
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch(
                f"vector subtraction: dims {self.dim} and {other.dim} differ")
        return Vector._raw(tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> Vector:
        return Vector._raw(tuple(map(neg, self.coords)))

    def __rmul__(self, c: Scalar) -> Vector:
        _check_scalar(c)
        return Vector._raw(tuple(map(mul, repeat(c), self.coords)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Vector(({', '.join(format_rational(c) for c in self.coords)}))"

    def __reduce__(self):
        return (Vector, (self.coords,))


class Operator:
    """Immutable exact square matrix, acting on vectors from the left.

    The matrix is stored by columns.  An operator that an operation returns
    computes column l by its column rule (:meth:`_fill`) the first time it
    is needed, and keeps it; one given by its rows, ``zero`` and
    ``identity`` are stored in full.  ``rows``, ``==``, hashing and pickling
    fill every column.  Filling columns changes no value.
    """

    __slots__ = ("_cols", "_rule")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0:
            raise ValueError("operator must have positive dimension")
        for r in rows:
            if len(r) != n:
                raise ValueError(f"operator rows must have length {n}, got {len(r)}")
            for c in r:
                _check_scalar(c)
        self._cols = list(zip(*rows))
        self._rule = None

    @classmethod
    def _raw(cls, cols: list[tuple[Scalar, ...]]) -> Operator:
        p = object.__new__(cls)
        p._cols = cols
        p._rule = None
        return p

    @classmethod
    def _lazy(cls, dim: int, how, a, b=None) -> Operator:
        """An operator whose column l, filled on first use, is ``how`` of ``a``
        and ``b`` (see :meth:`_fill`)."""
        p = object.__new__(cls)
        p._cols = [None] * dim
        p._rule = how, a, b
        return p

    @classmethod
    def zero(cls, dim: int) -> Operator:
        if dim < 1:
            raise ValueError("dimension must be positive")
        return cls._raw([(0,) * dim] * dim)

    @classmethod
    def identity(cls, dim: int) -> Operator:
        if dim < 1:
            raise ValueError("dimension must be positive")
        return cls._raw([tuple(1 if i == j else 0 for i in range(dim))
                         for j in range(dim)])

    def _fill(self, l: int) -> tuple[Scalar, ...]:
        """Column l by the column rule ``(how, a, b)``, kept: ``matmul``,
        ``add`` or ``sub`` of the operators ``a`` and ``b``, ``mul`` of the
        scalar ``a`` and ``b``, or, for None, the sum of ``s * table[l]``
        over the pairs ``(s, table)`` of ``a`` (or of ``a()``, run on the
        first fill), each ``table[l]`` a sparse ``((k, c), ...)``."""
        how, a, b = self._rule
        if how is None:
            if callable(a):
                a = a()
                self._rule = None, a, None
            acc = [0] * len(self._cols)
            for s, table in a:
                for k, c in table[l]:
                    acc[k] += s * c
            col = tuple(acc)
        elif how is matmul:
            col = a._image(b._cols[l] or b._fill(l))
        elif how is mul:
            col = tuple(map(mul, repeat(a), b._cols[l] or b._fill(l)))
        else:  # add or sub: a loop fills a chain of them down their first
            # operands, so a sum of many terms needs no deep recursion
            chain = [self]
            while a._cols[l] is None and a._rule[0] in (add, sub):
                chain.append(a)
                a = a._rule[1]
            col = a._cols[l] or a._fill(l)
            for op in reversed(chain):
                how, _, b = op._rule
                col = op._cols[l] = tuple(map(how, col, b._cols[l] or b._fill(l)))
            return col
        self._cols[l] = col
        return col

    def _columns(self) -> list[tuple[Scalar, ...]]:
        """Every column, filling the missing ones."""
        cols = self._cols
        if self._rule is not None:
            for l, col in enumerate(cols):
                if col is None:
                    self._fill(l)
            self._rule = None
        return cols

    def _image(self, coords: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
        """The coordinates of ``sum_l coords[l] * column l``."""
        cols = self._cols
        out = None
        for l, c in enumerate(coords):
            if c:
                col = cols[l] or self._fill(l)
                if c != 1:
                    col = map(mul, repeat(c), col)
                out = col if out is None else map(add, out, col)
        return (0,) * len(cols) if out is None else tuple(out)

    def column(self, l: int) -> tuple[Scalar, ...]:
        """The coordinates of column ``l``: the image of ``e_l``."""
        return self._cols[l] or self._fill(l)

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        return tuple(zip(*self._columns()))

    @property
    def dim(self) -> int:
        return len(self._cols)

    def is_zero(self) -> bool:
        return not any(map(any, self._columns()))

    def _require_same_dim(self, other: Operator, what: str) -> None:
        if len(self._cols) != len(other._cols):
            raise DimensionMismatch(
                f"{what}: operator dims {self.dim} and {other.dim} differ")

    def __add__(self, other: Operator) -> Operator:
        if not isinstance(other, Operator):
            return NotImplemented
        self._require_same_dim(other, "operator addition")
        return Operator._lazy(len(self._cols), add, self, other)

    def __sub__(self, other: Operator) -> Operator:
        if not isinstance(other, Operator):
            return NotImplemented
        self._require_same_dim(other, "operator subtraction")
        return Operator._lazy(len(self._cols), sub, self, other)

    def __neg__(self) -> Operator:
        return Operator._lazy(len(self._cols), mul, -1, self)

    def __matmul__(self, other: Operator) -> Operator:
        if not isinstance(other, Operator):
            return NotImplemented
        self._require_same_dim(other, "operator composition")
        return Operator._lazy(len(self._cols), matmul, self, other)

    def __rmul__(self, c: Scalar) -> Operator:
        _check_scalar(c)
        return Operator._lazy(len(self._cols), mul, c, self)

    def apply(self, v: Vector) -> Vector:
        if len(v.coords) != len(self._cols):
            raise DimensionMismatch(
                f"operator application: operator dim {self.dim}, vector dim {v.dim}")
        return Vector._raw(self._image(v.coords))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        return self._columns() == other._columns()

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(format_rational(c) for c in r) for r in self.rows)
        return f"Operator([{body}])"

    def __reduce__(self):
        return (Operator, (self.rows,))


class Algebra:
    """Anticommutative algebra defined by structure constants.

    ``brackets`` maps pairs ``(i, j)`` with ``i < j`` to the coordinates of
    ``[e_i, e_j]``; missing pairs are zero.  ``[e_j, e_i]`` and ``[e_i, e_i]``
    are derived, never stored, so no instance can violate antisymmetry.

    ``_ternary`` caches the ternary table (see the module docstring); it is
    filled lazily and ignored by equality, hashing and pickling.  So are
    ``_automorphisms`` (see :meth:`automorphisms`), ``_scans``, where the
    checker keeps the result of each scan it ran on this algebra, by
    identity key and mode, and ``_orbits``, where it keeps the orbit tables
    of those scans.
    """

    __slots__ = ("name", "basis", "_pairs", "_rows", "_ternary", "_automorphisms", "_scans",
                 "_orbits", "_hash")

    def __init__(self, name: str, basis: Iterable[str],
                 brackets: Mapping[tuple[int, int], Vector | Iterable[Scalar]]):
        basis = tuple(basis)
        dim = len(basis)
        if dim < 1:
            raise ValueError("algebra must have positive dimension")
        if len(set(basis)) != dim:
            raise ValueError(f"basis labels must be distinct, got {basis!r}")
        pairs: dict[tuple[int, int], Vector] = {}
        for (i, j), v in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(
                    f"structure constant key ({i}, {j}) invalid: need 0 <= i < j < {dim}")
            if not isinstance(v, Vector):
                v = Vector(v)
            if v.dim != dim:
                raise DimensionMismatch(
                    f"structure constant [e_{i}, e_{j}]: length {v.dim} != dim {dim}")
            if not v.is_zero():
                pairs[(i, j)] = v
        self.name = name
        self.basis = basis
        self._pairs = pairs
        self._rows = _sparse_rows(dim, pairs)
        self._ternary = None
        self._automorphisms = (0, None)  # (trials, group or None): see automorphisms
        self._scans = {}
        self._orbits = {}
        self._hash = hash((name, basis, tuple(sorted(pairs.items()))))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_vector(self, k: int) -> Vector:
        return Vector.basis(self.dim, k)

    def pairs(self) -> Iterator[tuple[tuple[int, int], Vector]]:
        """Nonzero structure constants, sorted by (i, j)."""
        return iter(sorted(self._pairs.items()))

    def structure_constant(self, i: int, j: int) -> Vector:
        """``[e_i, e_j]`` for any index pair, antisymmetry applied."""
        dim = self.dim
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"indices ({i}, {j}) out of range for dim {dim}")
        if i == j:
            return Vector.zero(dim)
        if i < j:
            return self._pairs.get((i, j), Vector.zero(dim))
        v = self._pairs.get((j, i))
        return Vector.zero(dim) if v is None else -v

    def _ternary_columns(self, i: int, j: int) -> tuple[tuple[tuple[int, Scalar], ...], ...]:
        """``[e_i, e_j, e_l]`` for every l, as sparse ``(k, c)`` columns; i < j."""
        dim = len(self.basis)
        table = self._ternary
        if table is None:
            table = self._ternary = [None] * (dim * dim)
        cols = table[i * dim + j]
        if cols is None:
            cols = table[i * dim + j] = _ternary_pair(self._rows, i, j)
        return cols

    def automorphisms(self, limit: int) -> tuple[tuple[int, ...], ...] | None:
        """The permutations ``p`` of the basis indices with ``[e_p(i), e_p(j)] =
        p([e_i, e_j])`` for all i, j, as tuples ``(p(0), ..., p(d-1))`` in
        lexicographic order, or None when the search needs more than
        ``limit`` trials.  Kept with the trials it took (or the limit it ran
        out at), so the result depends on ``limit`` and the algebra alone."""
        cost, group = self._automorphisms
        if group is None and limit > cost:
            self._automorphisms = cost, group = _basis_automorphisms(self._rows, limit)
        return group if group is not None and cost <= limit else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Algebra):
            return NotImplemented
        return (self.name == other.name and self.basis == other.basis
                and self._pairs == other._pairs)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Algebra({self.name!r}, dim={self.dim})"

    def __reduce__(self):
        return (Algebra, (self.name, self.basis, self._pairs))


def _sparse_rows(dim, pairs):
    # rows[i][j] = ((k, c), ...) with [e_i, e_j] = sum c * e_k; the i > j
    # half is the negation of the stored half, the diagonal is empty.
    rows = [[() for _ in range(dim)] for _ in range(dim)]
    for (i, j), v in pairs.items():
        nz = tuple((k, c) for k, c in enumerate(v.coords) if c)
        rows[i][j] = nz
        rows[j][i] = tuple((k, -c) for k, c in nz)
    return tuple(tuple(r) for r in rows)


def _basis_automorphisms(rows, limit):
    # backtracking over the images of the indices.  Where it can, the next
    # index k has c_su^k != 0 for two placed s, u, so p(k) is among the
    # indices where [e_p(s), e_p(u)] has that coefficient.  An image is kept
    # where every c_su^k with s, u, k placed maps to c_p(s)p(u)^p(k), so a
    # complete p is an automorphism.  Returns (trials, group), or (limit,
    # None) once more than limit trials are needed.
    dim = len(rows)
    const = [[dict(r) for r in row] for row in rows]
    order, forced, near = [], [], {}  # near: index -> two placed indices forcing it
    while len(order) < dim:
        k = min(near) if near else min(set(range(dim)).difference(order))
        order.append(k)
        forced.append(near.pop(k, None))
        for s in order:
            near.update((j, (s, k)) for j in const[s][k] if j not in order and j not in near)
    perm, used, found, trials = [-1] * dim, [False] * dim, [], 0

    def candidates(t):
        if forced[t] is None:
            return iter([w for w in range(dim) if not used[w]])
        s, u = forced[t]
        c = const[s][u][order[t]]
        return iter([w for w, d in const[perm[s]][perm[u]].items() if d == c and not used[w]])

    def fits(x, v, done):
        for i, s in enumerate(done):
            a, b = const[s][x], const[perm[s]][v]
            if len(a) != len(b) or a.get(x, 0) != b.get(v, 0) or any(
                    a.get(k, 0) != b.get(perm[k], 0) for k in done) or any(
                    const[u][s].get(x, 0) != const[perm[u]][perm[s]].get(v, 0)
                    for u in done[:i]):
                return False
        return True

    stack = [candidates(0)]
    while stack:
        t, x = len(stack) - 1, order[len(stack) - 1]
        if perm[x] >= 0:
            used[perm[x]], perm[x] = False, -1
        for v in stack[-1]:
            trials += 1
            if fits(x, v, order[:t]):
                break
        else:
            v = None
        if trials > limit:
            return limit, None
        if v is None:
            stack.pop()
        else:
            perm[x], used[v] = v, True
            if t < dim - 1:
                stack.append(candidates(t + 1))
            else:
                found.append(tuple(perm))
    return trials, tuple(sorted(found))


def _ternary_pair(rows, i, j):
    # [e_i,e_j,e_l] = [e_i,[e_j,e_l]] - [e_j,[e_i,e_l]] + [[e_i,e_j],e_l]
    ri, rj = rows[i], rows[j]
    cols = []
    for l in range(len(rows)):
        acc = [0] * len(rows)
        for m, c in rj[l]:
            for k, d in ri[m]:
                acc[k] += c * d
        for m, c in ri[l]:
            for k, d in rj[m]:
                acc[k] -= c * d
        for m, c in ri[j]:
            for k, d in rows[m][l]:
                acc[k] += c * d
        cols.append(tuple((k, a) for k, a in enumerate(acc) if a))
    return tuple(cols)


def _pair_columns(A, x, y):
    # (x_i y_j - x_j y_i, [e_i,e_j,.]) over the pairs i < j where the
    # coefficient is nonzero: [x,y,.] is the sum of coefficient * columns.
    xs, ys = x.coords, y.coords
    nz = [i for i in range(len(xs)) if xs[i] or ys[i]]
    out = []
    for a, i in enumerate(nz):
        xi, yi = xs[i], ys[i]
        for j in nz[a + 1:]:
            s = xi * ys[j] - xs[j] * yi
            if s:
                out.append((s, A._ternary_columns(i, j)))
    return out


def _require_dim(A: Algebra, what: str, **vectors: Vector) -> None:
    for label, v in vectors.items():
        if v.dim != A.dim:
            raise DimensionMismatch(
                f"{what}: {label} has dim {v.dim}, algebra {A.name!r} has dim {A.dim}")


def bracket(A: Algebra, x: Vector, y: Vector) -> Vector:
    """Bilinear extension of the structure constants: ``[x, y]``."""
    dim = len(A.basis)
    if not len(x.coords) == len(y.coords) == dim:
        _require_dim(A, "bracket", x=x, y=y)
    acc = [0] * dim
    rows = A._rows
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        row = rows[i]
        for j, yj in enumerate(y.coords):
            if not yj:
                continue
            entries = row[j]
            if entries:
                s = xi * yj
                for k, c in entries:
                    acc[k] += s * c
    return Vector._raw(tuple(acc))


def yamaguti(A: Algebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """Ternary bracket ``[x,y,z] = [x,[y,z]] - [y,[x,z]] + [[x,y],z]``."""
    dim = len(A.basis)
    if not len(x.coords) == len(y.coords) == len(z.coords) == dim:
        _require_dim(A, "yamaguti", x=x, y=y, z=z)
    acc = [0] * dim
    zs = [(l, c) for l, c in enumerate(z.coords) if c]
    if zs:
        for s, cols in _pair_columns(A, x, y):
            for l, zl in zs:
                col = cols[l]
                if col:
                    t = s * zl
                    for k, c in col:
                        acc[k] += t * c
    return Vector._raw(tuple(acc))


def left_translation(A: Algebra, x: Vector) -> Operator:
    """Matrix of ``y -> [x, y]``; column l is ``[x, e_l]``, filled on first use."""
    dim = len(A.basis)
    if len(x.coords) != dim:
        _require_dim(A, "left_translation", x=x)
    rows = A._rows
    return Operator._lazy(dim, None, [(xi, rows[i]) for i, xi in enumerate(x.coords) if xi])


def sixfold_yamagutian(A: Algebra, x: Vector, y: Vector) -> Operator:
    """``[l+_x, l+_y] + l+_[x,y]``, i.e. six times the Yamagutian.

    Column l is ``[x, y, e_l]``, filled on first use.  Kept separate because
    it is integer-valued whenever the structure constants are, which the
    identity checker exploits.
    """
    dim = len(A.basis)
    if not len(x.coords) == len(y.coords) == dim:
        _require_dim(A, "sixfold_yamagutian", x=x, y=y)
    return Operator._lazy(dim, None, partial(_pair_columns, A, x, y))


def yamagutian(A: Algebra, x: Vector, y: Vector) -> Operator:
    """The operator ``Y(x;y) = (1/6)([l+_x, l+_y] + l+_[x,y])``.

    Acts on any z as ``(1/6)[x,y,z]`` -- expanding the definitions shows
    this holds in every algebra, so it is cross-checked in the tests.
    """
    return Fraction(1, 6) * sixfold_yamagutian(A, x, y)


def operator_commutator(P: Operator, Q: Operator) -> Operator:
    """``P @ Q - Q @ P``, exactly."""
    if P.dim != Q.dim:
        raise DimensionMismatch(
            f"operator commutator: dims {P.dim} and {Q.dim} differ")
    return P @ Q - Q @ P


def format_vector(A: Algebra, v: Vector) -> str:
    """Render a vector as a combination of basis labels, e.g. ``2*e2 - e3``."""
    parts = []
    for label, c in zip(A.basis, v.coords):
        if not c:
            continue
        if c == 1:
            term = label
        elif c == -1:
            term = f"-{label}"
        else:
            term = f"{format_rational(c)}*{label}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out
