"""Seeded random rational forms for the tests, drawn like ``sweep --samples``
draws its parameters, so a seed gives the same forms on every run."""

import random

from xcliff.cli import random_rational
from xcliff.scalars import Matrix


def random_nonzero_rational(rng: random.Random):
    while True:
        x = random_rational(rng)
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
