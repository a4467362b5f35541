"""Sparse linear maps on tensor powers of a basis, and the composites built
from them.

A vector is a sparse dict {key: coefficient} whose keys are tuples of basis
elements, one per tensor factor: blades of the multivector space, words of a
word algebra, or letters of a word.  A LinearMap of arity k stores its
columns {input k-tuple: {output tuple: coefficient}}; ``f.at(i)`` is the step
that applies f to the k factors starting at factor i and leaves the others
alone (id (x) ... (x) f (x) ... (x) id).  A composite is a list of steps,
run left to right by :func:`chain`, so each identity of the theory is
written once as two step lists.  :func:`linearize` reads a step list holding
one :class:`Unknown` map as the sparse linear system in that map's entries,
and :meth:`Unknown.read` reads a solution of that system back as the map it
solves for, so solved maps are checked on the same step lists.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .scalars import Matrix, sparse_rank

ONE = Fraction(1)


def keys(n: int, k: int) -> list[tuple]:
    """Every k-tuple of rank-n blades, first factor slowest."""
    return list(product(range(1 << n), repeat=k))


class LinearMap:
    __slots__ = ("arity", "cols")

    def __init__(self, arity: int, cols: dict):
        self.arity = arity
        self.cols = cols

    @classmethod
    def from_matrix(cls, matrix: Matrix, basis: list[tuple]) -> "LinearMap":
        """The map of a square matrix whose index i stands for basis[i]."""
        cols: dict = {x: {} for x in basis}
        for i, row in enumerate(matrix.rows):
            for j, v in enumerate(row):
                if v:
                    cols[basis[j]][basis[i]] = v
        return cls(len(basis[0]), cols)

    @classmethod
    def of(cls, inputs: list[tuple], steps: list) -> "LinearMap":
        """The composite of ``steps`` as a map, from its images of ``inputs``."""
        return cls(len(inputs[0]), {x: chain({x: ONE}, *steps) for x in inputs})

    def to_matrix(self, basis: list[tuple]) -> Matrix:
        index = {x: i for i, x in enumerate(basis)}
        return Matrix.from_entries(len(basis), len(basis), {
            (index[y], index[x]): c for x, col in self.cols.items() for y, c in col.items()})

    def rank(self) -> int:
        """The exact rank: the dimension of the span of the columns."""
        index: dict = {}
        rows = [{index.setdefault(y, len(index)): c for y, c in col.items()}
                for col in self.cols.values()]
        return sparse_rank(rows, len(index))

    def transpose(self) -> "LinearMap":
        """The map whose column y is row y of this one, for each output y
        that occurs."""
        cols: dict = {}
        for x, col in self.cols.items():
            for y, c in col.items():
                cols.setdefault(y, {})[x] = c
        return LinearMap(len(next(iter(cols), ())), cols)

    def at(self, pos: int) -> tuple:
        return self, pos

    def act(self, vector: dict, pos: int) -> dict:
        out: dict = {}
        end = pos + self.arity
        for key, c in vector.items():
            col = self.cols.get(key[pos:end])
            if col:
                head, tail = key[:pos], key[end:]
                for y, w in col.items():
                    k = head + y + tail
                    # id, unit and counit hold ONE, and every chain starts from ONE
                    cw = c if w is ONE else w if c is ONE else c * w
                    v = out.get(k)
                    out[k] = cw if v is None else v + cw
        return out


class Unknown:
    """The map solved for.  Acting on a key it branches into every output in
    ``outputs`` and appends ``column(input, output)``, the number of that
    entry among the unknowns, to the key, where later steps leave it alone."""

    __slots__ = ("arity", "outputs", "column")

    def __init__(self, arity: int, outputs: list[tuple], column):
        self.arity = arity
        self.outputs = outputs
        self.column = column

    at = LinearMap.at

    def read(self, flat, inputs: list[tuple]) -> LinearMap:
        """The map whose entry (input x, output y) is flat[column(x, y)]."""
        return LinearMap(self.arity, {x: {y: v for y in self.outputs
                                          if (v := flat[self.column(x, y)])} for x in inputs})

    def act(self, vector: dict, pos: int) -> dict:
        out: dict = {}
        end = pos + self.arity
        for key, c in vector.items():
            x, head, tail = key[pos:end], key[:pos], key[end:]
            for y in self.outputs:
                out[head + y + tail + (self.column(x, y),)] = c
        return out


def chain(vector: dict, *steps) -> dict:
    """Run a composite: apply each (map, position) step in turn."""
    for f, pos in steps:
        vector = f.act(vector, pos)
    return {k: c for k, c in vector.items() if c}


def add(u: dict, v: dict, scale=ONE) -> dict:
    """The sparse vector u + scale * v, zero entries dropped."""
    out = dict(u)
    for k, c in v.items():
        out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


def dot(u: dict, v: dict) -> Fraction:
    """The sum of u[k] * v[k] over the keys the two sparse vectors share."""
    if len(u) > len(v):
        u, v = v, u
    return sum((c * v[k] for k, c in u.items() if k in v), Fraction(0))


def differences(inputs: list[tuple], lhs: list, rhs: list):
    """(x, lhs(x) - rhs(x)) for each input key x on which the two composites
    differ, lazily."""
    for x in inputs:
        left, right = chain({x: ONE}, *lhs), chain({x: ONE}, *rhs)
        if left != right:
            yield x, add(left, right, -1)


def agree(inputs: list[tuple], lhs: list, rhs: list) -> bool:
    return next(differences(inputs, lhs, rhs), None) is None


def linearize(inputs: list[tuple], lhs: list, rhs: list) -> tuple[dict, dict]:
    """The equations chain(x, *lhs) = chain(x, *rhs) over the input keys x,
    where lhs holds one Unknown step and rhs none.  Returns the sparse rows
    {(x, output key): {unknown column: coefficient}} and the right-hand
    sides {(x, output key): coefficient}, keyed alike and in the same order."""
    rows: dict = {}
    consts: dict = {}
    for x in inputs:
        for key, c in chain({x: ONE}, *lhs).items():
            rows.setdefault((x, key[:-1]), {})[key[-1]] = c
        for key, c in chain({x: ONE}, *rhs).items():
            rows.setdefault((x, key), {})
            consts[(x, key)] = c
    return rows, {label: consts.get(label, 0) for label in rows}


class StructureMaps(NamedTuple):
    """Identity, product, coproduct, unit and counit of a structure."""

    id: LinearMap
    m: LinearMap
    cop: LinearMap
    unit: LinearMap
    counit: LinearMap


def structure_maps(product_table: dict, coproduct_table: dict, one=0) -> StructureMaps:
    """The maps of the tables {(s, t): {c: coeff}} and {c: {(a, b): coeff}}
    over basis elements c; ``one`` is the unit's basis element."""
    return StructureMaps(
        id=LinearMap(1, {(c,): {(c,): ONE} for c in coproduct_table}),
        m=LinearMap(2, {st: {(c,): v for c, v in prod.items()}
                        for st, prod in product_table.items()}),
        cop=LinearMap(1, {(c,): t for c, t in coproduct_table.items()}),
        unit=LinearMap(0, {(): {(one,): ONE}}),
        counit=LinearMap(1, {(one,): {(): ONE}}),
    )
