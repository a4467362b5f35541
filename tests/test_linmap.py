"""The sparse map layer, and the property that each solved system and the
check it solves come from one expression: at any point, the residual of the
assembled rows equals the composite the check evaluates.  The integer steps
are checked against the same steps run in Fractions."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from xcliff import braiding, hopf
from xcliff.clifford import PAIRINGS, CliffordStructure, Tensor2
from xcliff.exterior import Multivector
from xcliff.linmap import (LinearMap, SparseVector, Unknown, add, agree, chain, differences,
                           keys, linearize)
from xcliff.scalars import Matrix
from xcliff.tensor_shuffle import GradedElement, WordOperator, letter_switch

from oracles import _routed, antipode_scattering, scattering_system

SETTINGS = settings(derandomize=True, database=None, max_examples=12, deadline=None)

rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
sparse_rationals = st.one_of(st.just(F(0)), rationals)


def matrices(size, entries=rationals):
    return st.lists(st.lists(entries, min_size=size, max_size=size),
                    min_size=size, max_size=size).map(Matrix)


def square_maps(basis, entries):
    """Maps over basis drawn as dense squares: rows[i][j] is the coefficient
    of basis[i] in the image of basis[j]."""
    size = len(basis)
    return st.lists(st.lists(entries, min_size=size, max_size=size),
                    min_size=size, max_size=size).map(
        lambda rows: LinearMap(len(basis[0]), {x: {y: rows[i][j] for i, y in enumerate(basis)
                                                   if rows[i][j]}
                                               for j, x in enumerate(basis)}))


@st.composite
def structures(draw):
    n = draw(st.sampled_from([1, 2]))
    return CliffordStructure(n, draw(matrices(n)), draw(matrices(n)),
                             pairing=draw(st.sampled_from(PAIRINGS)))


def residuals(rows: dict, rhs: dict, matrix: Matrix) -> dict:
    """Nonzero residuals of the rows at the row-major entries of matrix,
    grouped {input key: {output key: residual}}."""
    flat = [v for row in matrix.rows for v in row]
    out: dict = {}
    for (x, y), row in rows.items():
        r = sum(c * flat[j] for j, c in row.items()) - rhs[(x, y)]
        if r:
            out.setdefault(x, {})[y] = r
    return out


def test_step_acts_on_its_slice_only():
    swap = LinearMap(2, {(0, 1): {(1, 0): F(2)}})
    assert chain({(5, 0, 1, 7): F(3)}, swap.at(1)) == {(5, 1, 0, 7): F(6)}
    assert chain({(0, 0, 1): F(1)}, swap.at(0)) == {}


def test_maps_compare_by_value():
    f = LinearMap(1, {(0,): {(1,): F(2)}, (1,): {(0,): F(1, 2)}})
    # an empty column, an explicit zero and an int entry do not count
    assert f == LinearMap(1, {(0,): {(1,): 2, (0,): 0}, (1,): {(0,): F(1, 2)}, (2,): {}})
    assert f != LinearMap(2, f.cols)
    assert f != LinearMap(1, {(0,): {(1,): F(2)}, (1,): {(0,): F(1, 3)}})
    op = WordOperator.of_steps(2, 3, [letter_switch(2).at(1)])
    assert op == WordOperator.of_steps(2, 3, [op.at(0)])


def test_linearize_rows_are_the_coefficients_of_the_unknown():
    # f . g with g known and f unknown: (f g)[y, x] = sum_k f[y, k] g[k, x]
    g = LinearMap(1, {(0,): {(0,): F(2), (1,): F(3)}, (1,): {(1,): F(5)}})
    f = Unknown(keys(1, 1))
    rows, rhs = linearize(keys(1, 1), [g.at(0), f.at(0)], [])
    assert rows[((0,), (1,))] == {2: F(2), 3: F(3)}
    assert rhs == {label: (1 if label[0] == label[1] else 0) for label in rows}


@SETTINGS
@given(st.sampled_from([1, 2]), st.sampled_from([1, 2]), st.data())
def test_unknown_numbers_entries_row_major_over_its_basis(n, arity, data):
    basis = keys(n, arity)
    f = data.draw(square_maps(basis, sparse_rationals))
    unknown = Unknown(basis)
    flat = unknown.flatten(f)
    assert unknown.read(flat) == f
    assert list(flat) == [v for row in f.to_matrix(basis).rows for v in row]


@SETTINGS
@given(structures(), st.data())
def test_scattering_residual_is_minus_the_defect(structure, data):
    basis = keys(structure.n, 2)
    sigma = data.draw(square_maps(basis, sparse_rationals))
    rows, rhs = scattering_system(structure)
    defect = braiding.compatibility_defect(structure, sigma)
    assert residuals(rows, rhs, sigma.to_matrix(basis)) == {
        x: {y: -c for y, c in t.terms.items()} for x, t in defect.items()}


@SETTINGS
@given(structures(), st.data())
def test_antipode_residuals_are_the_convolution_defects(structure, data):
    dim, basis = 1 << structure.n, keys(structure.n, 1)
    s = data.draw(square_maps(basis, sparse_rationals))
    idm, ue = structure.maps.id, hopf.unit_counit_endo(structure)
    for (rows, rhs), (f, g) in zip(hopf.antipode_systems(structure), ((s, idm), (idm, s))):
        conv, unit = hopf.convolution(f, g, structure).to_matrix(basis), ue.to_matrix(basis)
        expected: dict = {}
        for d in range(dim):
            for c in range(dim):
                if defect := conv[(d, c)] - unit[(d, c)]:
                    expected.setdefault((c,), {})[(d,)] = defect
        assert residuals(rows, rhs, s.to_matrix(basis)) == expected


def tensor(f: LinearMap, g: LinearMap) -> LinearMap:
    """f (x) g on pairs, for maps f and g on one factor."""
    return LinearMap(2, {x + y: {u + v: a * b for u, a in fc.items() for v, b in gc.items()}
                         for x, fc in f.cols.items() for y, gc in g.cols.items()})


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("n", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=3, deadline=None)
@given(data=st.data())
def test_routed_side_factors_as_the_two_convolutions_by_id(n, pairing, data):
    # L(phi (x) psi) = (id * phi) (x) (psi * id) at random forms and sparse
    # phi, psi: the factorization solve_sigma solves the square by, with no
    # bigebra law
    structure = CliffordStructure(n, data.draw(matrices(n)), data.draw(matrices(n)),
                                  pairing=pairing)
    phi, psi = (data.draw(square_maps(keys(n, 1), sparse_rationals)) for _ in "ab")
    idm, pairs = structure.maps.id, keys(n, 2)
    routed = {x: chain({x: 1}, *_routed(structure.maps, tensor(phi, psi)))
              for x in pairs}
    factored = tensor(hopf.convolution(idm, phi, structure),
                      hopf.convolution(psi, idm, structure))
    assert LinearMap(2, routed) == factored


# -- differential tests against the step over Fractions ----------------------

def fraction_act(f, vector: dict, pos: int) -> dict:
    """One step with exact multiply-adds: the step the integer one replaced."""
    out: dict = {}
    end = pos + f.arity
    for key, c in vector.items():
        x, head, tail = key[pos:end], key[:pos], key[end:]
        if isinstance(f, Unknown):
            for y in f.outputs:
                out[head + y + tail + (f.column(x, y),)] = c
            continue
        for y, w in f.cols.get(x, {}).items():
            k = head + y + tail
            out[k] = out.get(k, 0) + c * w
    return out


def fraction_chain(vector: dict, *steps) -> dict:
    for f, pos in steps:
        vector = fraction_act(f, vector, pos)
    return {k: c for k, c in vector.items() if c}


def fraction_differences(inputs, lhs, rhs) -> list:
    out = []
    for x in inputs:
        left, right = fraction_chain({x: F(1)}, *lhs), fraction_chain({x: F(1)}, *rhs)
        diff = dict(left)
        for k, c in right.items():
            diff[k] = diff.get(k, 0) - c
        if left != right:
            out.append((x, {k: c for k, c in diff.items() if c}))
    return out


def fraction_linearize(inputs, lhs, rhs) -> tuple[dict, dict]:
    rows: dict = {}
    consts: dict = {}
    for x in inputs:
        for key, c in fraction_chain({x: F(1)}, *lhs).items():
            rows.setdefault((x, key[:-1]), {})[key[-1]] = c
        for key, c in fraction_chain({x: F(1)}, *rhs).items():
            rows.setdefault((x, key), {})
            consts[(x, key)] = c
    return rows, {label: consts.get(label, 0) for label in rows}


def ordered(value):
    """A dict as its item list, recursively, so that comparisons see order."""
    if isinstance(value, dict):
        return [(k, ordered(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [ordered(v) for v in value]
    return value


BASIS = (0, 1)
MAX_FACTORS = 4
# ints, zeros, and Fractions over several denominators, so one map's columns
# mostly have different denominators
coefficients = st.one_of(st.integers(-2, 2),
                         st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 4, 6])))


def tuples(k: int) -> list[tuple]:
    return list(product(BASIS, repeat=k))


@st.composite
def maps(draw, arity: int, out_arity: int) -> LinearMap:
    cols = {}
    for x in tuples(arity):
        if draw(st.integers(0, 5)):  # some columns are missing
            cols[x] = draw(st.dictionaries(st.sampled_from(tuples(out_arity)), coefficients,
                                           min_size=1, max_size=3))
    return LinearMap(arity, cols)


def unknown(arity: int) -> Unknown:
    return Unknown(tuples(arity))


@st.composite
def composites(draw, factors: int, with_unknown: bool = False) -> list:
    """A step list on keys of ``factors`` factors, mixing random maps, the
    arity-0 unit, the counit to the empty tuple, a pair of steps whose terms
    cancel to zero, and, if asked, one Unknown."""
    steps = []
    kinds = draw(st.lists(st.sampled_from(["map", "unit", "counit", "cancel"]), max_size=5))
    if with_unknown:
        kinds.insert(draw(st.integers(0, len(kinds))), "unknown")
    for kind in kinds:
        if kind == "unit" and factors < MAX_FACTORS:
            f, out = LinearMap(0, {(): {(1,): draw(coefficients)}}), 1
        elif kind == "counit" and factors:
            f, out = LinearMap(1, {(0,): {(): draw(coefficients)}}), 0
        elif kind == "cancel" and factors:
            # (x) -> c (0) + c (1) -> c w (0) - c w (0) + c (1)
            c, w = draw(coefficients), draw(coefficients)
            pos = draw(st.integers(0, factors - 1))
            steps += [LinearMap(1, {x: {(0,): c, (1,): c} for x in tuples(1)}).at(pos),
                      LinearMap(1, {(0,): {(0,): w, (1,): 1}, (1,): {(0,): -w}}).at(pos)]
            continue
        elif kind == "unknown" and factors:
            f, out = unknown(1), 1
        else:
            a = draw(st.integers(0, min(factors, 2)))
            out = draw(st.integers(0, min(2, MAX_FACTORS - factors + a)))
            f = draw(maps(a, out))
        steps.append(f.at(draw(st.integers(0, factors - f.arity))))
        factors += out - f.arity
    return steps


@st.composite
def cases(draw) -> tuple:
    """(factors, lhs with one Unknown or none, rhs, a vector to run lhs on)."""
    factors = draw(st.integers(0, 2))
    lhs = draw(composites(factors, draw(st.booleans())))
    vector = draw(st.dictionaries(st.sampled_from(tuples(factors)), coefficients,
                                  min_size=1, max_size=4))
    return factors, lhs, draw(composites(factors)), vector


# every kind of input at once: two denominators in one map (HALVES), the
# unit, terms cancelling to zero, an Unknown and the counit
HALVES = LinearMap(1, {(0,): {(0,): F(1, 2), (1,): 3}, (1,): {(1,): F(2, 3)}})
FIXED = (2, [LinearMap(0, {(): {(1,): F(3, 4)}}).at(1), HALVES.at(0),
             LinearMap(1, {(1,): {(0,): 1, (1,): 1}}).at(1),
             LinearMap(1, {(0,): {(0,): 1, (1,): 1}, (1,): {(0,): -1}}).at(1),
             unknown(1).at(0), LinearMap(1, {(1,): {(): F(-5, 6)}}).at(1)],
         [HALVES.at(1), HALVES.at(1)], {(0, 1): F(1, 3), (1, 1): 2})


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(cases())
@example(FIXED)
def test_integer_layer_matches_fraction_steps(case):
    factors, lhs, rhs, vector = case
    inputs = tuples(factors)
    assert ordered(chain(vector, *lhs)) == ordered(fraction_chain(vector, *lhs))
    want = fraction_differences(inputs, lhs, rhs)
    assert ordered(list(differences(inputs, lhs, rhs))) == ordered(want)
    assert list(differences(inputs, lhs, lhs)) == []
    assert agree(inputs, lhs, rhs) == (not want)
    if any(isinstance(f, Unknown) for f, _ in lhs):
        want = fraction_linearize(inputs, lhs, rhs)
        assert ordered(linearize(inputs, lhs, rhs)) == ordered(want)
    else:
        want = {x: fraction_chain({x: F(1)}, *lhs) for x in inputs}
        assert ordered(LinearMap.of(inputs, lhs).cols) == ordered(want)


# -- the batched runs against one run per input ------------------------------

def per_input_differences(inputs, lhs, rhs) -> list:
    """The differences of two composites, one chain per input: the oracle
    of the batched runs."""
    out = []
    for x in inputs:
        diff = add(chain({x: 1}, *lhs), chain({x: 1}, *rhs), -1)
        if diff:
            out.append((x, diff))
    return out


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(cases(), st.data())
def test_batched_runs_match_one_run_per_input(case, data):
    factors, lhs, rhs, _ = case
    # a permutation of the inputs, so that the order of the witnesses is seen
    inputs = data.draw(st.permutations(tuples(factors)))
    assert (ordered(list(differences(inputs, lhs, rhs)))
            == ordered(per_input_differences(inputs, lhs, rhs)))
    if not any(isinstance(f, Unknown) for f, _ in lhs):
        assert ordered(LinearMap.of(inputs, lhs).cols) == ordered(
            {x: chain({x: 1}, *lhs) for x in inputs})


class CountingMap(LinearMap):
    """A map that records how many vectors its steps are given."""

    __slots__ = ("inputs",)

    def __init__(self, arity, cols):
        super().__init__(arity, cols)
        self.inputs = 0

    def act(self, vectors, pos):
        self.inputs += len(vectors)
        return super().act(vectors, pos)


@pytest.mark.parametrize("first", [0, 1, 5])
def test_agree_stops_near_the_first_differing_input(first):
    inputs = keys(2, 2)
    ident = CountingMap(2, {x: {x: 1} for x in inputs})
    # a map that differs from the identity on inputs[first:] only
    other = LinearMap(2, {x: {x: 1 if i < first else 2} for i, x in enumerate(inputs)})
    assert not agree(inputs, [ident.at(0)], [other.at(0)])
    # blocks of 1, 2, 4, ...: the block holding inputs[first] ends before 2 * first + 2
    assert first < ident.inputs < min(2 * first + 2, len(inputs))
    assert next(differences(inputs, [ident.at(0)], [other.at(0)]))[0] == inputs[first]


def eight_step_antipode_route(maps, s) -> list:
    """(product (x) product) . (S (x) coproduct . product (x) S)
    . (coproduct (x) coproduct) in eight steps, with S acting on the
    four-factor intermediate: a second spelling of the closed form, which
    the program builds with S folded into the outer coproducts."""
    return [maps.cop.at(1), maps.cop.at(0), maps.m.at(1), maps.cop.at(1),
            s.at(0), s.at(3), maps.m.at(0), maps.m.at(1)]


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("n, eta, xi", [
    (1, [[2]], [[F(3, 2)]]),
    (1, [[-1]], [[0]]),
    (2, [[1, F(1, 2)], [-1, 2]], [[1, -1], [F(1, 2), 1]]),
    (2, [[2, 0], [0, -1]], [[F(1, 3), 0], [0, 3]]),
    (2, [[0, 1], [-2, 0]], [[0, 0], [0, 0]]),
])
def test_factored_antipode_route_matches_the_eight_step_route(pairing, n, eta, xi):
    structure = CliffordStructure(n, Matrix(eta), Matrix(xi), pairing=pairing)
    sigma = antipode_scattering(structure)
    assert sigma is not None
    s = hopf.antipode_map(structure, hopf.solve_antipode(structure).particular)
    assert sigma == LinearMap.of(keys(n, 2), eight_step_antipode_route(structure.maps, s))


# -- the sparse elements: one arithmetic under three kinds ---------------------

ELEMENTS = {
    # kind: (x, y of the same space, z of another rank, repr(x))
    "multivector": (Multivector(2, {0: F(1, 2), 3: -1}), Multivector(2, {1: 2, 3: 1}),
                    Multivector(3, {0: 1}), "1/2 + -1*e01"),
    "tensor2": (Tensor2(2, {(0, 3): F(1, 2), (1, 2): -1}), Tensor2(2, {(0, 3): 1}),
                Tensor2(3, {(0, 0): 1}), "1/2*1(x)e01 + -1*e0(x)e1"),
    "word": (GradedElement(2, 3, {(): F(1, 2), (0, 1): -1}), GradedElement(2, 3, {(1,): 3}),
             GradedElement(3, 3, {(2,): 1}), "1/2*() + -1*01"),
}


@pytest.mark.parametrize("kind", sorted(ELEMENTS))
def test_sparse_element_arithmetic(kind):
    x, y, z, shown = ELEMENTS[kind]
    assert not x + (-x)
    assert 2 * x == x + x == x * 2
    assert x - y == x + (-1) * y
    assert x + y == y + x and x + y != x
    assert repr(x) == shown and repr(0 * x) == "0"
    with pytest.raises(ValueError):
        x + z


def test_elements_of_different_kinds_are_unequal():
    pair = {(0, 1): F(2)}
    assert Tensor2(2, pair) != GradedElement(2, 2, pair)
    assert Multivector(2, {1: 1}) != SparseVector(2, {1: 1})
    assert Multivector(2) != Tensor2(2) != GradedElement(2, 2)


def test_word_element_keeps_its_truncation_flag():
    cut = GradedElement(2, 2, {(0,): 1}, truncated=True)
    whole = GradedElement(2, 2, {(1,): 1})
    assert (cut + whole).truncated and (whole + cut).truncated and (whole - cut).truncated
    assert (3 * cut).truncated and (cut * 3).truncated and (-cut).truncated
    assert not (whole + whole).truncated and not (3 * whole).truncated
    assert -whole == GradedElement(2, 2, {(1,): -1})
    assert repr(cut) == "1*0 [truncated]"
    with pytest.raises(ValueError, match="bound"):
        cut + GradedElement(2, 3, {(1,): 1})


def test_word_element_equality_counts_bound_and_flag():
    terms = {(0,): 1}
    assert GradedElement(2, 2, terms) != GradedElement(2, 5, terms)
    assert GradedElement(2, 2, terms, truncated=True) != GradedElement(2, 2, terms)
    assert GradedElement(2, 2, terms, truncated=True) == GradedElement(2, 2, terms, True)
    assert GradedElement(2, 2, terms) == GradedElement(2, 2, terms)
