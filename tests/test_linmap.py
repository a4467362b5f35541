"""The sparse map layer, and the property that each solved system and the
check it solves come from one expression: at any point, the residual of the
assembled rows equals the composite the check evaluates."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from xcliff import braiding, hopf
from xcliff.clifford import PAIRINGS, CliffordStructure
from xcliff.linmap import LinearMap, Unknown, chain, keys, linearize
from xcliff.scalars import Matrix

SETTINGS = settings(derandomize=True, database=None, max_examples=12, deadline=None)

rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
sparse_rationals = st.one_of(st.just(F(0)), rationals)


def matrices(size, entries=rationals):
    return st.lists(st.lists(entries, min_size=size, max_size=size),
                    min_size=size, max_size=size).map(Matrix)


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


def test_linearize_rows_are_the_coefficients_of_the_unknown():
    # f . g with g known and f unknown: (f g)[y, x] = sum_k f[y, k] g[k, x]
    g = LinearMap(1, {(0,): {(0,): F(2), (1,): F(3)}, (1,): {(1,): F(5)}})
    f = Unknown(1, keys(1, 1), lambda x, y: 2 * y[0] + x[0])
    rows, rhs = linearize(keys(1, 1), [g.at(0), f.at(0)], [])
    assert rows[((0,), (1,))] == {2: F(2), 3: F(3)}
    assert rhs == {label: (1 if label[0] == label[1] else 0) for label in rows}


@SETTINGS
@given(structures(), st.data())
def test_scattering_residual_is_minus_the_defect(structure, data):
    dim2 = 1 << (2 * structure.n)
    sigma = data.draw(matrices(dim2, sparse_rationals))
    rows, rhs = braiding.scattering_system(structure)
    defect = braiding.compatibility_defect(structure, sigma)
    assert residuals(rows, rhs, sigma) == {
        x: {y: -c for y, c in t.terms.items()} for x, t in defect.items()}


@SETTINGS
@given(structures(), st.data())
def test_antipode_residuals_are_the_convolution_defects(structure, data):
    dim = 1 << structure.n
    s = data.draw(matrices(dim, sparse_rationals))
    idm, ue = hopf.identity_endo(structure), hopf.unit_counit_endo(structure)
    for (rows, rhs), (f, g) in zip(hopf.antipode_systems(structure), ((s, idm), (idm, s))):
        defect = hopf.convolution(f, g, structure) - ue
        expected: dict = {}
        for d in range(dim):
            for c in range(dim):
                if defect[(d, c)]:
                    expected.setdefault((c,), {})[(d,)] = defect[(d, c)]
        assert residuals(rows, rhs, s) == expected
