"""Seeded generators shared by the checker tests and the acceptance suite.

These stay out of the package on purpose: random algebras and random
vectors are test instruments, not part of the public surface.
"""
import os
import random
from fractions import Fraction
from pathlib import Path

import maltsev
from maltsev import Algebra, Vector

# Seeds are fixed so that the sweeps below are reproducible runs, not
# flaky samples.
RANDOM_ALGEBRA_SEED = 20260809
RANDOM_VECTOR_SEED = 99173

_DIM3_PAIRS = ((0, 1), (0, 2), (1, 2))


def random_dim3_algebra(rng: random.Random, index: int) -> Algebra:
    """Antisymmetric dim-3 algebra with integer constants in [-2, 2]."""
    brackets = {
        pair: Vector([rng.randint(-2, 2) for _ in range(3)])
        for pair in _DIM3_PAIRS
    }
    return Algebra(f"rand3-{index}", ("e1", "e2", "e3"), brackets)


def random_dim3_algebras(count: int, seed: int = RANDOM_ALGEBRA_SEED):
    rng = random.Random(seed)
    return [random_dim3_algebra(rng, i) for i in range(count)]


def random_vector(rng: random.Random, dim: int) -> Vector:
    return Vector([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                   for _ in range(dim)])


def random_algebra(rng: random.Random, dim: int, index: int = 0) -> Algebra:
    """Dim-``dim`` algebra with sparse rational constants (about half zero)."""
    brackets = {
        (i, j): Vector([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        if rng.random() < 0.5 else 0 for _ in range(dim)])
        for i in range(dim) for j in range(i + 1, dim)
    }
    return Algebra(f"rand{dim}-{index}", tuple(f"e{k + 1}" for k in range(dim)),
                   brackets)


def package_env() -> dict:
    """Environment for a child ``python`` that imports this same maltsev."""
    src = str(Path(maltsev.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
