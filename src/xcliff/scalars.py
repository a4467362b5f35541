"""Exact rational scalars and exact dense linear algebra.

Everything downstream works over arbitrary-precision rationals; there is no
floating point anywhere.  ``Scalar`` is ``fractions.Fraction``, which already
keeps numerator/denominator coprime with a positive denominator.  Matrices
are small and dense; the solvers run fraction-exact Gaussian elimination with
first-nonzero pivoting (deterministic, no stability concerns), working on
sparse row dictionaries internally so structure-constant systems stay fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction


def parse_scalar(s: str) -> Fraction:
    """Parse a "p/q" or "p" string into an exact rational.  Anything else,
    a zero denominator included, raises a one-line ValueError."""
    if not isinstance(s, str):
        raise ValueError(f'scalar must be a "p/q" string, got {s!r}')
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"scalar {s!r} has a zero denominator") from None


def format_scalar(x: Fraction) -> str:
    """Canonical "p/q" form, plain "p" when the denominator is 1."""
    return str(Fraction(x))


class SingularMatrixError(ArithmeticError):
    """Raised when inverting a singular matrix; carries the exact rank."""

    def __init__(self, rank: int):
        super().__init__(f"matrix is singular (rank {rank})")
        self.rank = rank


class Matrix:
    """Dense row-major matrix of exact rationals."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(Fraction(x) for x in r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        else:
            w = 0
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = w

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        zero = Fraction(0)
        return cls([[zero] * c for _ in range(r)])

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries: dict) -> "Matrix":
        """Build from a sparse {(i, j): value} dict."""
        rows = [[Fraction(0)] * ncols for _ in range(nrows)]
        for (i, j), v in entries.items():
            rows[i][j] = Fraction(v)
        return cls(rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self.rows]})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.rows])

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        cols = list(zip(*other.rows)) if other.rows else []
        return Matrix([[sum(a * b for a, b in zip(row, col) if a and b) for col in cols]
                       for row in self.rows])

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * Fraction(x) for a, x in zip(row, vec) if a) for row in self.rows)

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def is_zero(self) -> bool:
        return all(not a for r in self.rows for a in r)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def to_json(self) -> list:
        return [[format_scalar(a) for a in r] for r in self.rows]

    @classmethod
    def from_json(cls, data: list) -> "Matrix":
        return cls([[parse_scalar(x) for x in r] for r in data])

    def _same_shape(self, other: "Matrix"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")


@dataclass
class AffineSolutionSet:
    """Exact solution set of a linear system: particular + span(nullspace).

    ``particular`` is None iff the system is inconsistent.  Nullspace vectors
    come from the reduced echelon form (one per free column) and are linearly
    independent.
    """

    particular: tuple | None
    nullspace_basis: tuple = field(default_factory=tuple)

    @property
    def is_consistent(self) -> bool:
        return self.particular is not None

    @property
    def dimension(self) -> int:
        return len(self.nullspace_basis)

    @property
    def is_unique(self) -> bool:
        return self.is_consistent and not self.nullspace_basis

    def members(self):
        """The particular solution and its shifts by each basis vector."""
        if self.particular is None:
            return
        yield self.particular
        for v in self.nullspace_basis:
            yield tuple(p + d for p, d in zip(self.particular, v))


def _rref_in_place(rows: list[dict], ncols: int) -> dict[int, int]:
    """Gauss-Jordan on sparse {col: value} rows; columns >= ncols ride along
    (augmented part) and are never chosen as pivots.  Returns {pivot col: row}.
    """
    pivot_rows: dict[int, int] = {}
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i].get(c)), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r]
        pv = piv[c]
        if pv != 1:
            for k in piv:
                piv[k] /= pv
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i].get(c)
            if not f:
                continue
            ri = rows[i]
            for k, v in piv.items():
                nv = ri.get(k, 0) - f * v
                if nv:
                    ri[k] = nv
                else:
                    ri.pop(k, None)
        pivot_rows[c] = r
        r += 1
        if r == nrows:
            break
    return pivot_rows


def solve_sparse_system(rows: list[dict], rhs: list, ncols: int) -> AffineSolutionSet:
    """Solve the system given as sparse rows (shared backend for all solvers)."""
    aug = []
    for row, b in zip(rows, rhs):
        d = {k: Fraction(v) for k, v in row.items() if v}
        b = Fraction(b)
        if b:
            d[ncols] = b
        aug.append(d)
    pivots = _rref_in_place(aug, ncols)
    for row in aug:
        if row and set(row) == {ncols}:
            return AffineSolutionSet(particular=None)
    particular = [Fraction(0)] * ncols
    for c, r in pivots.items():
        particular[c] = aug[r].get(ncols, Fraction(0))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for c, r in pivots.items():
            coeff = aug[r].get(f)
            if coeff:
                v[c] = -coeff
        basis.append(tuple(v))
    return AffineSolutionSet(particular=tuple(particular), nullspace_basis=tuple(basis))


def sparse_rank(rows: Iterable[dict], ncols: int) -> int:
    """Exact rank of a matrix given as sparse {col: value} rows."""
    work = [{k: Fraction(v) for k, v in row.items() if v} for row in rows]
    return len(_rref_in_place(work, ncols))


def solve_linear_system(a: Matrix, b: Sequence) -> AffineSolutionSet:
    """Exact affine solution set of A x = b."""
    if a.nrows != len(b):
        raise ValueError(f"A has {a.nrows} rows but b has {len(b)} entries")
    rows = [{j: v for j, v in enumerate(row) if v} for row in a.rows]
    return solve_sparse_system(rows, list(b), a.ncols)


def rank(a: Matrix) -> int:
    return sparse_rank(({j: v for j, v in enumerate(row) if v} for row in a.rows), a.ncols)


def invert(a: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError (with rank) when singular."""
    if not a.is_square():
        raise ValueError("invert requires a square matrix")
    n = a.nrows
    rows = []
    for i, row in enumerate(a.rows):
        d = {j: v for j, v in enumerate(row) if v}
        d[n + i] = Fraction(1)
        rows.append(d)
    pivots = _rref_in_place(rows, n)
    if len(pivots) < n:
        raise SingularMatrixError(len(pivots))
    inv_rows = []
    for c in range(n):
        r = pivots[c]
        inv_rows.append([rows[r].get(n + j, Fraction(0)) for j in range(n)])
    return Matrix(inv_rows)


def is_invertible(a: Matrix) -> bool:
    return a.is_square() and rank(a) == a.nrows


def minimal_polynomial(a: Matrix) -> list[Fraction]:
    """Monic minimal polynomial of a square matrix, as ascending coefficients.

    Finds the first linear dependency among I, A, A^2, ... so no lower-degree
    monic polynomial can annihilate A.  Returns [c0, c1, ..., 1] meaning
    c0 + c1 x + ... + x^d.
    """
    if not a.is_square():
        raise ValueError("minimal_polynomial requires a square matrix")
    n = a.nrows
    if n == 0:
        return [Fraction(1)]

    def vec(m: Matrix) -> tuple:
        return tuple(x for row in m.rows for x in row)

    powers = [Matrix.identity(n)]
    while True:
        nxt = powers[-1] @ a
        cols = [vec(p) for p in powers]
        rows = []
        for i in range(n * n):
            d = {j: cols[j][i] for j in range(len(cols)) if cols[j][i]}
            rows.append(d)
        sol = solve_sparse_system(rows, list(vec(nxt)), len(cols))
        if sol.is_consistent:
            coeffs = [-c for c in sol.particular]
            coeffs.append(Fraction(1))
            return coeffs
        powers.append(nxt)


def poly_eval_matrix(coeffs: Sequence, a: Matrix) -> Matrix:
    """Evaluate a polynomial (ascending coefficients) at a square matrix."""
    if not a.is_square():
        raise ValueError("square matrix required")
    out = Matrix.zeros(a.nrows, a.nrows)
    power = Matrix.identity(a.nrows)
    for i, c in enumerate(coeffs):
        c = Fraction(c)
        if c:
            out = out + power.scale(c)
        if i + 1 < len(coeffs):
            power = power @ a
    return out
