"""The tests' instances: seeded random rational forms, drawn like ``sweep
--samples`` draws its parameters, so a seed gives the same forms on every
run; hypothesis strategies for the forms of each family; and the small
structures and blades the tests build by hand."""

import random
from fractions import Fraction as F

from hypothesis import strategies as st

from xcliff.cli import random_rational
from xcliff.clifford import CliffordStructure
from xcliff.exterior import Multivector
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


rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
# each family's (eta, xi) kinds, as in the benchmark's configs
FAMILIES = {"generic": ("generic", "generic"), "diagonal": ("diagonal", "diagonal"),
            "xi0": ("generic", "zero"), "eta0": ("zero", "generic"), "zero": ("zero", "zero")}


def forms(n: int, kind: str):
    if kind == "zero":
        return st.just(Matrix.zeros(n, n))
    if kind == "diagonal":
        return st.lists(rationals, min_size=n, max_size=n).map(
            lambda d: Matrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)]))
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Matrix)


def complex_structure(i2, j2):
    return CliffordStructure(1, Matrix([[F(i2)]]), Matrix([[F(j2)]]))


def mv(n, bits, c=1):
    return Multivector.blade(n, bits, c)
