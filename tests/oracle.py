"""Reference implementations for the tests.

Each builtin is evaluated here by a hand-written function over the core
primitives, independently of its DSL text and of the compiled evaluator,
and :func:`check` scans the substitution stream one substitution at a time.
Operator identities use ``operator_commutator``, ``left_translation`` and
``sixfold_yamagutian`` directly; the derivation laws apply ``6Y(x;y)`` as a
matrix, and ``ORACLE`` holds the scale that turns their sides into the
stated ones, applied to the reported counterexample only.

:func:`eval_side` evaluates any parsed identity by recursion over its AST,
and :func:`check_ast` scans with it one substitution at a time: no
registers, no stages and no partial maps.  :func:`oriented` is the reading
of a vector identity that the column rule tests.  :func:`automorphisms`,
:func:`orbit` and :func:`canonical_prefixes` find by brute force what the
automorphism search and the walk of the canonical prefixes compute, and
:func:`stream_walk` finds the walk's entries from every substitution of the
stream.
:func:`diagonal_pairs` finds a program's diagonal pairs by renaming
variables in the text.  :func:`_cd_mul` multiplies whole octonions, which
the catalog multiplies unit by unit.
"""
import re
from fractions import Fraction
from itertools import combinations, permutations, product

from maltsev import (
    CheckReport,
    Counterexample,
    Operator,
    Vector,
    bracket,
    left_translation,
    operator_commutator,
    sixfold_yamagutian,
    substitution_options,
    yamaguti,
)
from maltsev.dsl import (Bracket, Column, IdentityAst, Scale, Sum, Var, format_identity,
                         parse_identity)


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

# id -> (variables, multiplicities, scale of the stated sides, evaluator)
ORACLE = {
    "anticommutativity": ("xy", (1, 1), 1, _ev_anticommutativity),
    "ternary-antisymmetry": ("xyz", (1, 1, 1), 1, _ev_ternary_antisymmetry),
    "glts-c": ("xyz", (1, 1, 1), 1, _ev_glts_c),
    "glts-d": ("xyzu", (1, 1, 1, 1), 1, _ev_glts_d),
    "sagle-yamaguti": ("xyzw", (1, 1, 1, 1), 1, _ev_sagle_yamaguti),
    "glts-f": ("xyzwv", (1, 1, 1, 1, 1), 1, _ev_glts_f),
    "yamagutian-antisymmetry": ("xy", (1, 1), _SIXTH, _ev_yamagutian_antisymmetry),
    "yamagutian-constraint": ("xyz", (1, 1, 1), _SIXTH, _ev_yamagutian_constraint),
    "derivation": ("xyzw", (1, 1, 1, 1), _SIXTH, _ev_derivation),
    "reductivity": ("xyz", (1, 1, 1), 1, _ev_reductivity),
    "hidden-assoc-operator": ("xyzw", (1, 1, 1, 1), _SIXTH, _ev_hidden_assoc_operator),
    "ternary-derivation": ("xyzwv", (1, 1, 1, 1, 1), _SIXTH, _ev_ternary_derivation),
    "maltsev": ("xyz", (2, 1, 1), 1, _ev_maltsev),
    "jacobi": ("xyz", (1, 1, 1), 1, _ev_jacobi),
}


def check(A, identity_id: str, *, exhaustive: bool = False) -> CheckReport:
    """The report ``check_builtin`` must give, from a per-substitution scan.

    Without ``exhaustive`` the scan stops at the first violation, so the
    count of substitutions seen is also the count checked.
    """
    variables, multiplicities, scale, evaluate = ORACLE[identity_id]
    stream = product(*(substitution_options(A.dim, m) for m in multiplicities))
    first = None
    violations = 0
    count = 0
    for args in stream:
        count += 1
        lhs, rhs = evaluate(A, args)
        if lhs != rhs:
            violations += 1
            if first is None:
                first = Counterexample(substitution=tuple(zip(variables, args)),
                                       left=scale * lhs, right=scale * rhs)
            if not exhaustive:
                break
    return CheckReport(
        identity=identity_id, algebra=A.name, holds=first is None,
        substitutions_checked=count,
        counterexample=first, violations=violations if exhaustive else None)


def eval_side(A, node, env, zero):
    """One side of a parsed identity at the assignment ``env``.

    ``_`` is the identity operator, and a bracket whose last argument is an
    operator P is ``l+_a @ P`` or ``6Y(a;b) @ P``; ``zero`` is the type of
    the literal ``0``.
    """
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Column):
        return Operator.identity(A.dim)
    if isinstance(node, Scale):
        return node.coeff * eval_side(A, node.child, env, zero)
    if isinstance(node, Sum):
        total = zero.zero(A.dim)
        for t in node.terms:
            total = total + eval_side(A, t, env, zero)
        return total
    assert isinstance(node, Bracket)
    *front, last = [eval_side(A, a, env, Vector) for a in node.args]
    if isinstance(last, Operator):
        linear = left_translation if len(front) == 1 else sixfold_yamagutian
        return linear(A, *front) @ last
    return bracket(A, *front, last) if len(front) == 1 else yamaguti(A, *front, last)


def violations(A, ast, *, exhaustive=True):
    """(stream index, substitution, lhs, rhs) at every violation, and the count.

    Without ``exhaustive`` the scan stops at the first violation.
    """
    zero = Operator if ast.level == "operator" else Vector
    stream = product(*(substitution_options(A.dim, m) for m in ast.multiplicities))
    bad = []
    count = 0
    for index, args in enumerate(stream):
        count += 1
        env = dict(zip(ast.variables, args))
        lhs, rhs = eval_side(A, ast.lhs, env, zero), eval_side(A, ast.rhs, env, zero)
        if lhs != rhs:
            bad.append((index, args, lhs, rhs))
            if not exhaustive:
                break
    return bad, count


def check_ast(A, ast, label, *, exhaustive=False, scanned=None) -> CheckReport:
    """The report ``run_check`` must give for ``ast``, from :func:`violations`.

    ``scanned`` may pass in the result of an earlier :func:`violations` call.
    """
    bad, count = violations(A, ast, exhaustive=exhaustive) if scanned is None else scanned
    first = None
    if bad:
        index, args, lhs, rhs = bad[0]
        first = Counterexample(substitution=tuple(zip(ast.variables, args)),
                               left=lhs, right=rhs)
        if not exhaustive:
            count = index + 1
    return CheckReport(
        identity=label, algebra=A.name, holds=not bad, substitutions_checked=count,
        counterexample=first, violations=len(bad) if exhaustive else None)


def _holds(node, leaf):
    """Whether ``leaf`` occurs in ``node``."""
    if isinstance(node, Scale):
        return _holds(node.child, leaf)
    if isinstance(node, Sum):
        return any(_holds(t, leaf) for t in node.terms)
    if isinstance(node, Bracket):
        return any(_holds(a, leaf) for a in node.args)
    return node == leaf


def oriented(node, leaf):
    """``node`` with each binary bracket ``[a,b]`` whose ``a`` holds ``leaf``
    written ``-[b,a]``: how the column rule reads a vector identity in its
    last variable (ternary brackets are not reordered).

    The signs go into the nearest scale, so the result is formattable.
    """
    if isinstance(node, Sum):
        return Sum(tuple(oriented(t, leaf) for t in node.terms))
    if isinstance(node, Scale):
        child = oriented(node.child, leaf)
        if isinstance(child, Scale):
            return Scale(node.coeff * child.coeff, child.child)
        return Scale(node.coeff, child)
    if isinstance(node, Bracket):
        args = tuple(oriented(a, leaf) for a in node.args)
        if len(args) == 2 and _holds(args[0], leaf):
            return Scale(-1, Bracket(args[::-1]))
        return Bracket(args)
    return node


def column_twin(ast, name="col"):
    """The vector identity with a new last variable ``name`` in place of ``_``.

    Its stream is the operator identity's substitutions, each followed by
    ``name = e_0 ... e_{d-1}``: the stream a column program scans.
    """
    def swap(node):
        if isinstance(node, Column):
            return Var(name)
        if isinstance(node, Scale):
            return Scale(node.coeff, swap(node.child))
        if isinstance(node, Sum):
            return Sum(tuple(map(swap, node.terms)))
        if isinstance(node, Bracket):
            return Bracket(tuple(map(swap, node.args)))
        return node

    return IdentityAst((*ast.variables, name), (*ast.multiplicities, 1),
                       swap(ast.lhs), swap(ast.rhs))


def automorphisms(A):
    """The permutations p of the basis indices with ``[e_p(i), e_p(j)] =
    p([e_i, e_j])`` for all i, j, found by trying every permutation."""
    d = A.dim
    table = [[A.structure_constant(i, j).coords for j in range(d)] for i in range(d)]
    return tuple(p for p in permutations(range(d))
                 if all(table[p[i]][p[j]][p[k]] == table[i][j][k]
                        for i in range(d) for j in range(d) for k in range(d)))


def orbit(idx, options, group, blocks):
    """The orbit of the option indices ``idx`` (one per slot of ``options``)
    under the permutations of each block's slots and the basis permutations
    of ``group``, found by applying every element."""
    where = [{v: i for i, v in enumerate(o)} for o in options]
    out = set()
    for p in group:
        moved = []
        for k, i in enumerate(idx):
            coords = [0] * len(p)
            for a, c in enumerate(options[k][i].coords):
                coords[p[a]] = c
            moved.append(where[k][Vector(coords)])
        for shuffle in product(*[[dict(zip(block, order)) for order in permutations(block)]
                                 for block in blocks]):
            image = list(moved)
            for mapping in shuffle:
                for slot, source in mapping.items():
                    image[slot] = moved[source]
            out.add(tuple(image))
    return out


def canonical_prefixes(A, plan, grouped=True):
    """The prefixes (option indices of every slot of ``plan`` but the last)
    that give the slots of each block distinct values and come first in
    stream order within their orbit under the block permutations and, if
    ``grouped``, the automorphisms of :func:`automorphisms`."""
    options = [substitution_options(A.dim, m) for m in plan.multiplicities][:-1]
    group = automorphisms(A) if grouped else (tuple(range(A.dim)),)
    out, seen = [], set()
    for idx in product(*(range(len(o)) for o in options)):
        if idx not in seen and all(len({idx[k] for k in b}) == len(b) for b in plan.blocks):
            out.append(idx)
            seen |= orbit(idx, options, group, plan.blocks)
    return out


def diagonal_pairs(ast):
    """The pairs of slots (i, j), i < j, of ``ast``'s staged program, in no
    one of its blocks, such that the text with slot j's variable (or ``_``)
    replaced by slot i's vanishes."""
    plan, text = ast.plan, format_identity(ast)
    names = [*ast.variables, "_"][:plan.nvars]
    blocked = {pair for block in plan.blocks for pair in combinations(block, 2)}
    out = []
    for i, j in combinations(range(plan.nvars), 2):
        old = "_" if names[j] == "_" else rf"\b{names[j]}\b"
        if (i, j) not in blocked and parse_identity(re.sub(old, names[i], text)).vanishes:
            out.append((i, j))
    return out


def stream_walk(plan, options, group):
    """The entries of :meth:`maltsev.dsl.Program._walk` over the whole stream
    of ``options``, each with its prefix, found from the substitutions whose
    option indices increase along each block (every one of the product,
    filtered).  Their prefixes come in stream order, each with its lowest
    such last-slot index; each one not yet met is the first of its orbit,
    whose images under every element of ``group`` are then met; the tied
    ones (a diagonal pair with equal option indices) are left out."""
    moves = []  # per slot and element, the image of each option index
    for o in options:
        sets = [tuple(i for i, c in enumerate(v.coords) if c) for v in o]
        where = {s: i for i, s in enumerate(sets)}
        moves.append([[where[tuple(sorted(p[i] for i in s))] for s in sets] for p in group])
    last = plan.nvars - 1
    blocks = [[k for k in block if k < last] for block in plan.blocks]

    def image(g, p):
        q = [move[g][i] for move, i in zip(moves, p)]
        for block in blocks:
            for k, i in zip(block, sorted(q[k] for k in block)):
                q[k] = i
        return tuple(q)

    prefixes = {}  # prefix -> its lowest last-slot index, in stream order
    for idx in product(*(range(len(o)) for o in options)):
        if all(idx[a] < idx[b] for block in plan.blocks for a, b in zip(block, block[1:])):
            prefixes.setdefault(idx[:last], idx[last])
    ties = [(i, j) for i, j in plan.diagonals if j < last]
    entries, seen, before = [], set(), None
    for p, lo in prefixes.items():
        if p in seen:
            continue
        images = [image(g, p) for g in range(len(group))]
        seen.update(images)
        if any(p[i] == p[j] for i, j in ties):
            continue
        stabilizer = [moves[last][g] for g, q in enumerate(images) if q == p]
        cols = None
        if len(stabilizer) > 1:
            orbits = [{move[i] for move in stabilizer} for i in range(len(options[last]))]
            cols = {i: len(o) for i, o in enumerate(orbits) if i == min(o)}
        # the first slot that differs from the entry before
        k = -1 if before is None else next(j for j, (a, b) in enumerate(zip(p, before)) if a != b)
        base = 0
        for o, i in zip(options, p):
            base = base * len(o) + i
        entries.append((k, base * len(options[last]), lo, plan.orbit * len(set(images)), cols, p))
        before = p
    return entries


# octonions by Cayley-Dickson doubling, on whole vectors: elements are
# tuples of 2^k ints, and a pair (a, b) of halves multiplies as
# (a,b)(c,d) = (ac - d conj(b), conj(a) d + c b), with conj(a,b) =
# (conj(a), -b) and plain integer arithmetic at length 1

def _cd_conj(x):
    if len(x) == 1:
        return x
    n = len(x) // 2
    return _cd_conj(x[:n]) + tuple(-t for t in x[n:])


def _cd_mul(x, y):
    if len(x) == 1:
        return (x[0] * y[0],)
    n = len(x) // 2
    a, b = x[:n], x[n:]
    c, d = y[:n], y[n:]
    left = tuple(p - q for p, q in zip(_cd_mul(a, c), _cd_mul(d, _cd_conj(b))))
    right = tuple(p + q for p, q in zip(_cd_mul(_cd_conj(a), d), _cd_mul(c, b)))
    return left + right
