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
solves for (:meth:`Unknown.flatten` writes a map as one), so solved maps are
checked on the same step lists.

The columns are exact (ints or Fractions), but composites run on integers:
on first use a map caches its columns times d, the lcm of its entry
denominators, and a step multiplies and adds ints only and returns d with
its output.  Every term passes through each step exactly once, so a chain's
output has the one denominator D = d_0 d_1 ... d_k (d_0 clears the input).
Exact values appear only at the edges: :func:`chain` and :func:`linearize`
divide by D once, and :func:`differences` compares two sides by
cross-multiplying their denominators, building Fractions only for a witness.

A step acts on a batch of vectors in one call, and D does not depend on the
vector, so a composite runs on a whole block of inputs at once, one call per
step, with each image and exact value what one run per input would give.
:meth:`LinearMap.of` and :func:`linearize` run all their inputs in one
block; :func:`differences` runs blocks of doubling size (1, 2, 4, ...), so
that a check which stops at its first failing input has run fewer than
twice the inputs up to it.

A LinearMap is the program's one operator type: structure maps, antipodes,
scatterings, switches and letter crossings alike.  Maps compare by value
(``==``), and :meth:`LinearMap.to_matrix` is the one dense exit, for JSON
and for the tests' dense oracles; :class:`scalars.Matrix` otherwise holds
only the bilinear forms.  :class:`SparseVector` is likewise the one base
of the program's elements (multivectors, tensor squares, word elements).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import NamedTuple

from .scalars import Matrix, sparse_rank

ONE = Fraction(1)


def keys(n: int, k: int) -> list[tuple]:
    """Every k-tuple of rank-n blades, first factor slowest."""
    return list(product(range(1 << n), repeat=k))


class LinearMap:
    """A map of arity k given by its exact columns.  A map is not mutated
    after its first use in a composite: that use caches its integer form,
    which a later change to ``cols`` would not reach."""

    __slots__ = ("arity", "cols", "_ints")

    def __init__(self, arity: int, cols: dict):
        self.arity = arity
        self.cols = cols
        self._ints = None

    @classmethod
    def of(cls, inputs: list[tuple], steps: list) -> "LinearMap":
        """The composite of ``steps`` as a map, from its images of ``inputs``,
        all run in one batch."""
        images, den = _run([{x: 1} for x in inputs], steps)
        return cls(len(inputs[0]), {x: {k: Fraction(c, den) for k, c in image.items() if c}
                                    for x, image in zip(inputs, images)})

    def entries(self) -> dict:
        """The nonzero entries {(input, output): coefficient}."""
        return {(x, y): c for x, col in self.cols.items() for y, c in col.items() if c}

    def __eq__(self, other):
        """Value equality: the same arity and the same nonzero entries, so
        empty columns, explicit zeros and int against Fraction do not count."""
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.arity == other.arity and self.entries() == other.entries()

    def to_matrix(self, basis: list[tuple]) -> Matrix:
        """The dense matrix whose index i stands for basis[i] (column j holds
        the image of basis[j]): the one dense exit, for JSON and for dense
        oracles."""
        index = {x: i for i, x in enumerate(basis)}
        return Matrix.from_entries(len(basis), len(basis), {
            (index[y], index[x]): c for x, col in self.cols.items() for y, c in col.items()})

    def fits(self, arity: int, size: int, out_size: int | None = None) -> bool:
        """Whether this is a map of the given arity whose input keys are
        arity-tuples over range(size) and whose output keys are arity-tuples
        over range(out_size), by default range(size)."""
        out_size = size if out_size is None else out_size

        def within(key: tuple, bound: int) -> bool:
            return len(key) == arity and all(0 <= a < bound for a in key)

        return self.arity == arity and all(
            within(x, size) and all(within(y, out_size) for y in col)
            for x, col in self.cols.items())

    def rank(self) -> int:
        """The exact rank: the dimension of the span of the columns."""
        index: dict = {}
        rows = [{index.setdefault(y, len(index)): c for y, c in col.items()}
                for col in self._integer_form()[0].values()]
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

    def _integer_form(self) -> tuple[dict, int]:
        """(integer columns, d): the columns times d, the lcm of the entry
        denominators, derived on first use and cached."""
        if self._ints is None:
            d = lcm(*(c.denominator for col in self.cols.values() for c in col.values()))
            self._ints = ({x: {y: c.numerator * (d // c.denominator) for y, c in col.items()}
                           for x, col in self.cols.items()}, d)
        return self._ints

    def act(self, vectors: list[dict], pos: int) -> tuple[list[dict], int]:
        """The integer images of a batch of integer vectors and their one
        denominator: the exact image of vector / D is out / (D * d)."""
        cols, d = self._integer_form()
        end = pos + self.arity
        outs = []
        for vector in vectors:
            out: dict = {}
            for key, c in vector.items():
                col = cols.get(key[pos:end])
                if col:
                    head, tail = key[:pos], key[end:]
                    for y, w in col.items():
                        k = head + y + tail
                        out[k] = out.get(k, 0) + c * w
            outs.append(out)
        return outs, d


class Unknown:
    """The map solved for, over a basis of k-tuples: its entry (input x,
    output y) is unknown number ``column(x, y)`` = index(y) * len(basis) +
    index(x), the row-major flattening of ``to_matrix(basis)``, so there are
    ``size`` = len(basis)^2 unknowns.  Acting on a key it branches into
    every output in ``outputs`` (the basis) and appends the number of that
    entry to the key, where later steps leave it alone."""

    __slots__ = ("arity", "outputs", "size", "_index")

    def __init__(self, basis: list[tuple]):
        self.arity = len(basis[0])
        self.outputs = basis
        self.size = len(basis) ** 2
        self._index = {x: i for i, x in enumerate(basis)}

    at = LinearMap.at

    def column(self, x: tuple, y: tuple) -> int:
        return self._index[y] * len(self.outputs) + self._index[x]

    def read(self, flat) -> LinearMap:
        """The map whose entry (input x, output y) is flat[column(x, y)]."""
        return LinearMap(self.arity, {x: {y: v for y in self.outputs
                                          if (v := flat[self.column(x, y)])}
                                      for x in self.outputs})

    def flatten(self, f: LinearMap) -> tuple:
        """The solution vector that :meth:`read` reads back as f: entry
        (x, y) of f at column(x, y), zero elsewhere."""
        flat = [Fraction(0)] * self.size
        for x, col in f.cols.items():
            for y, c in col.items():
                flat[self.column(x, y)] = Fraction(c)
        return tuple(flat)

    def act(self, vectors: list[dict], pos: int) -> tuple[list[dict], int]:
        end, width = pos + self.arity, len(self.outputs)
        outs = []
        for vector in vectors:
            out: dict = {}
            for key, c in vector.items():
                x, head, tail = self._index[key[pos:end]], key[:pos], key[end:]
                for i, y in enumerate(self.outputs):  # column(x, y), inlined
                    out[head + y + tail + (i * width + x,)] = c
            outs.append(out)
        return outs, 1


def _run(vectors: list[dict], steps) -> tuple[list[dict], int]:
    """(integer vectors, D): the composite of the steps at each integer
    vector, over the one denominator D of the batch; entries may be zero.
    Each step acts on the whole batch in one call."""
    den = 1
    for f, pos in steps:
        vectors, d = f.act(vectors, pos)
        den *= d
    return vectors, den


def chain(vector: dict, *steps) -> dict:
    """Run a composite: apply each (map, position) step in turn."""
    d0 = lcm(*(c.denominator for c in vector.values()))
    outs, den = _run([{k: c.numerator * (d0 // c.denominator) for k, c in vector.items()}], steps)
    return {k: Fraction(c, d0 * den) for k, c in outs[0].items() if c}


def add(u: dict, v: dict, scale=ONE) -> dict:
    """The sparse vector u + scale * v, zero entries dropped."""
    out = dict(u)
    for k, c in v.items():
        out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


class SparseVector:
    """A sparse vector {key: nonzero Fraction} over a space of rank ``dim``,
    immutable by convention.  A subclass checks its keys in one pass in its
    own constructor before it calls this one, and shows one term in
    ``_term``; the arithmetic builds its results through ``_result``, which
    a subclass with more state than the rank overrides to carry it."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict):
        self.dim = dim
        self.terms = {k: c for k, v in terms.items() if (c := Fraction(v))}

    def _result(self, terms: dict, *operands) -> "SparseVector":
        """The element of this kind with these terms, from self and operands."""
        return type(self)(self.dim, terms)

    def _check(self, other: "SparseVector"):
        if self.dim != other.dim:
            raise ValueError(f"rank mismatch {self.dim} vs {other.dim}")

    def __eq__(self, other):
        return type(other) is type(self) and self.dim == other.dim and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._check(other)
        return self._result(add(self.terms, other.terms), other)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._result({k: -c for k, c in self.terms.items()})

    def __rmul__(self, c):
        c = Fraction(c)
        return self._result({k: c * v for k, v in self.terms.items()})

    __mul__ = __rmul__

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(self._term(k, c) for k, c in sorted(self.terms.items()))


def dot(u: dict, v: dict) -> Fraction:
    """The sum of u[k] * v[k] over the keys the two sparse vectors share."""
    if len(u) > len(v):
        u, v = v, u
    return sum((c * v[k] for k, c in u.items() if k in v), Fraction(0))


def differences(inputs: list[tuple], lhs: list, rhs: list):
    """(x, lhs(x) - rhs(x)) for each input key x on which the two composites
    differ, in input order, lazily: the inputs run in blocks of doubling
    size (1, 2, 4, ...), so a caller that stops at the first difference
    has run fewer than twice the inputs up to it."""
    start, size = 0, 1
    while start < len(inputs):
        block = inputs[start:start + size]
        start, size = start + size, 2 * size
        lefts, dl = _run([{x: 1} for x in block], lhs)
        rights, dr = _run([{x: 1} for x in block], rhs)
        for x, left, right in zip(block, lefts, rights):
            diff = {k: c * dr for k, c in left.items() if c}
            for k, c in right.items():
                diff[k] = diff.get(k, 0) - c * dl
            if any(diff.values()):
                yield x, {k: Fraction(c, dl * dr) for k, c in diff.items() if c}


def agree(inputs: list[tuple], lhs: list, rhs: list) -> bool:
    return next(differences(inputs, lhs, rhs), None) is None


def linearize(inputs: list[tuple], lhs: list, rhs: list) -> tuple[dict, dict]:
    """The equations chain(x, *lhs) = chain(x, *rhs) over the input keys x,
    where lhs holds one Unknown step and rhs none.  Returns the sparse rows
    {(x, output key): {unknown column: coefficient}} and the right-hand
    sides {(x, output key): coefficient}, keyed alike and in the same order."""
    rows: dict = {}
    consts: dict = {}
    (lefts, dl), (rights, dr) = (_run([{x: 1} for x in inputs], side) for side in (lhs, rhs))
    for x, left, right in zip(inputs, lefts, rights):
        for key, c in left.items():
            if c:
                rows.setdefault((x, key[:-1]), {})[key[-1]] = Fraction(c, dl)
        for key, c in right.items():
            if c:
                rows.setdefault((x, key), {})
                consts[(x, key)] = Fraction(c, dr)
    return rows, {label: consts.get(label, 0) for label in rows}


class StructureMaps(NamedTuple):
    """Identity, product, coproduct, unit and counit of a structure."""

    id: LinearMap
    m: LinearMap
    cop: LinearMap
    unit: LinearMap
    counit: LinearMap


def structure_maps(m: LinearMap, cop: LinearMap, one=0) -> StructureMaps:
    """The structure maps of a product m and a coproduct cop over the basis
    elements of cop's columns; ``one`` is the unit's basis element."""
    return StructureMaps(
        id=LinearMap(1, {x: {x: ONE} for x in cop.cols}),
        m=m,
        cop=cop,
        unit=LinearMap(0, {(): {(one,): ONE}}),
        counit=LinearMap(1, {(one,): {(): ONE}}),
    )
