"""Deterministic random sampling of rational bilinear forms for sweeps and
invariant suites.  Everything is driven by a seeded generator so reports are
reproducible byte for byte."""

from __future__ import annotations

import random
from fractions import Fraction

from .scalars import Matrix


def random_rational(rng: random.Random, lo: int = -3, hi: int = 3,
                    max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_nonzero_rational(rng: random.Random, lo: int = -3, hi: int = 3,
                            max_den: int = 3) -> Fraction:
    while True:
        x = random_rational(rng, lo, hi, max_den)
        if x:
            return x


def random_form(n: int, rng: random.Random, symmetric: bool = False,
                nonzero: bool = False) -> Matrix:
    while True:
        rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        if symmetric:
            for i in range(n):
                for j in range(i):
                    rows[i][j] = rows[j][i]
        m = Matrix(rows)
        if not nonzero or not m.is_zero():
            return m

