import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from xcliff import scalars
from xcliff.scalars import (AffineSolutionSet, Matrix, SingularMatrixError,
                            format_scalar, invert, parse_scalar,
                            solve_sparse_system, sparse_rank)

from oracles import (is_invertible, minimal_polynomial, poly_eval_matrix, rank,
                     solve_linear_system)


def test_scalar_parse_format():
    assert parse_scalar("3/4") == F(3, 4)
    assert parse_scalar("-7") == F(-7)
    assert format_scalar(F(2, 4)) == "1/2"
    assert format_scalar(F(5, 1)) == "5"
    assert format_scalar(F(-1, 2)) == "-1/2"


@pytest.mark.parametrize("bad", [1, None, F(1, 2), " 3/0", "x", "0.5", "1_000", "1e10000000"])
def test_scalar_parse_errors_are_value_errors(bad):
    with pytest.raises(ValueError) as exc:
        parse_scalar(bad)
    assert "\n" not in str(exc.value)


def test_solve_identity_case():
    sol = solve_linear_system(Matrix([[1]]), [1])
    assert sol.particular == (F(1),)
    assert sol.nullspace_basis == ()


def test_solve_full_kernel():
    sol = solve_linear_system(Matrix([[0]]), [0])
    assert sol.particular == (F(0),)
    assert sol.nullspace_basis == ((F(1),),)


def test_solve_underdetermined():
    # hand elimination: row2 - 2*row1 kills the second row, pivot x0 = 1 - x1
    sol = solve_linear_system(Matrix([[1, 1], [2, 2]]), [1, 2])
    assert sol.particular == (F(1), F(0))
    assert sol.nullspace_basis == ((F(-1), F(1)),)


def test_solve_inconsistent():
    sol = solve_linear_system(Matrix([[1, 1], [2, 2]]), [1, 3])
    assert sol.particular is None
    assert not sol.is_consistent


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve_linear_system(Matrix([[1, 0]]), [1, 2])


def _apply(a: Matrix, v):
    return tuple(sum(x * F(y) for x, y in zip(row, v)) for row in a.rows)


def test_solution_members_resubstitute():
    rng = random.Random(17)
    for _ in range(25):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = Matrix([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)]
                    for _ in range(r)])
        b = [F(rng.randint(-3, 3)) for _ in range(r)]
        sol = solve_linear_system(a, b)
        if not sol.is_consistent:
            # verify inconsistency independently: rank of [A|b] exceeds rank of A
            aug = Matrix([list(row) + [bi] for row, bi in zip(a.rows, b)])
            assert rank(aug) == rank(a) + 1
            continue
        for member in sol.members():
            assert list(_apply(a, member)) == b


def test_invert_identity():
    assert invert(Matrix.identity(4)) == Matrix.identity(4)


def test_invert_diagonal():
    inv = invert(Matrix([[2, 0], [0, 3]]))
    assert inv == Matrix([[F(1, 2), 0], [0, F(1, 3)]])


def test_invert_singular_reports_rank():
    with pytest.raises(SingularMatrixError) as exc:
        invert(Matrix([[1, 1], [1, 1]]))
    assert exc.value.rank == 1


def test_invert_non_square():
    with pytest.raises(ValueError):
        invert(Matrix([[1, 0, 0], [0, 1, 0]]))


def test_invert_roundtrip_random():
    rng = random.Random(5)
    found = 0
    while found < 10:
        n = rng.randint(1, 5)
        a = Matrix([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)])
        if not is_invertible(a):
            continue
        found += 1
        inv = invert(a)
        assert a @ inv == Matrix.identity(n)
        assert inv @ a == Matrix.identity(n)


def test_minimal_polynomial_identity():
    assert minimal_polynomial(Matrix.identity(2)) == [F(-1), F(1)]


def test_minimal_polynomial_switch():
    assert minimal_polynomial(Matrix([[0, 1], [1, 0]])) == [F(-1), F(0), F(1)]


def test_minimal_polynomial_annihilates_and_is_minimal():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 4)
        a = Matrix([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        coeffs = minimal_polynomial(a)
        assert coeffs[-1] == 1
        assert poly_eval_matrix(coeffs, a).is_zero()
        # powers below the degree are linearly independent, so no lower-degree
        # monic polynomial can annihilate a
        d = len(coeffs) - 1
        powers = [Matrix.identity(n)]
        for _ in range(d - 1):
            powers.append(powers[-1] @ a)
        cols = [tuple(x for row in p.rows for x in row) for p in powers]
        m = Matrix(list(zip(*cols))) if cols else Matrix([])
        assert rank(m) == d


def test_affine_solution_set_flags():
    s = AffineSolutionSet(particular=(F(1),), nullspace_basis=())
    assert s.is_unique and s.dimension == 0
    s = AffineSolutionSet(particular=None)
    assert not s.is_consistent


# -- malformed input and the substitution certificate ------------------------

def test_solve_sparse_rejects_rows_rhs_length_mismatch():
    with pytest.raises(ValueError) as exc:
        solve_sparse_system([{0: 1}, {0: 2}], [1], 1)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("col", [-1, 2, 3])
@pytest.mark.parametrize("call", [lambda rows: solve_sparse_system(rows, [0], 2),
                                  lambda rows: sparse_rank(rows, 2)],
                         ids=["solve_sparse_system", "sparse_rank"])
def test_sparse_rows_reject_columns_outside_range(call, col):
    # column 2 = ncols would otherwise be read as the right-hand side
    with pytest.raises(ValueError) as exc:
        call([{0: 1, col: 1}])
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("a, b", [([[1, 1], [1, -1]], [2, 0]), ([[1, 1]], [0])],
                         ids=["particular", "nullspace"])
def test_solve_certificate_rejects_a_wrong_pivot_row(monkeypatch, a, b):
    real = scalars.Echelon.reduce

    def planted(echelon):
        # shift the first pivot row's right-hand side when every column is a
        # pivot, else its entry in the free column
        real(echelon)
        row, ncols = echelon.pivots[0], echelon.ncols
        wrong = ncols if len(echelon.pivots) == ncols else ncols - 1
        row[wrong] = row.get(wrong, 0) + row[0]

    monkeypatch.setattr(scalars.Echelon, "reduce", planted)
    with pytest.raises(ArithmeticError, match="substitute"):
        solve_linear_system(Matrix(a), b)


# -- differential tests against Gauss-Jordan over Fractions -------------------

def _fraction_rref(rows: list, ncols: int) -> dict:
    """Gauss-Jordan over Fractions, column by column with the first nonzero
    from the current row on as pivot, pivots normalized to 1; columns >=
    ncols ride along.  Returns {pivot col: row}.  Its reduced echelon form
    is the solver's, whose pivot rows are found in another order."""
    pivot_rows = {}
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


def _fraction_solve(rows: list, rhs: list, ncols: int) -> AffineSolutionSet:
    aug = []
    for row, b in zip(rows, rhs):
        d = {k: F(v) for k, v in row.items() if v}
        if b:
            d[ncols] = F(b)
        aug.append(d)
    pivots = _fraction_rref(aug, ncols)
    if any(row and set(row) == {ncols} for row in aug):
        return AffineSolutionSet(particular=None)
    particular = [F(0)] * ncols
    for c, r in pivots.items():
        particular[c] = aug[r].get(ncols, F(0))
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [F(0)] * ncols
            v[f] = F(1)
            for c, r in pivots.items():
                v[c] = -aug[r].get(f, F(0))
            basis.append(tuple(v))
    return AffineSolutionSet(tuple(particular), tuple(basis))


def _fraction_invert(a: Matrix) -> Matrix:
    n = a.nrows
    rows = [{**{j: v for j, v in enumerate(row) if v}, n + i: F(1)}
            for i, row in enumerate(a.rows)]
    pivots = _fraction_rref(rows, n)
    if len(pivots) < n:
        raise SingularMatrixError(len(pivots))
    return Matrix([[rows[pivots[c]].get(n + j, F(0)) for j in range(n)] for c in range(n)])


ORACLE = settings(derandomize=True, database=None, max_examples=100, deadline=None)
nonzero = st.builds(F, st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]), st.integers(1, 4))
entries = st.one_of(nonzero, st.just(F(0)))


@st.composite
def systems(draw):
    """Rows (dicts holding zeros too), right-hand sides and ncols, at most
    8 x 8: drawn rows, then zero rows and combinations of earlier rows whose
    right-hand side is the same combination, or that plus a nonzero shift."""
    ncols = draw(st.integers(1, 8))
    nrows = draw(st.integers(0, 8))
    rows, rhs = [], []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["drawn", "drawn", "drawn", "zero", "dependent",
                                     "inconsistent"]))
        if kind == "drawn" or (kind != "zero" and not rows):
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
            rhs.append(draw(entries))
        elif kind == "zero":
            rows.append([F(0)] * ncols)
            rhs.append(draw(entries))
        else:
            i, j = (draw(st.integers(0, len(rows) - 1)) for _ in "ij")
            p, q = draw(nonzero), draw(entries)
            rows.append([p * x + q * y for x, y in zip(rows[i], rows[j])])
            rhs.append(p * rhs[i] + q * rhs[j]
                       + (draw(nonzero) if kind == "inconsistent" else 0))
    perm = draw(st.permutations(range(nrows)))
    return [dict(enumerate(rows[k])) for k in perm], [rhs[k] for k in perm], ncols


@ORACLE
@given(systems())
def test_solver_matches_fraction_gauss_jordan(system):
    rows, rhs, ncols = system
    sol = solve_sparse_system([dict(r) for r in rows], list(rhs), ncols)
    expected = _fraction_solve(rows, rhs, ncols)
    assert sol == expected
    assert sparse_rank(rows, ncols) == len(_fraction_rref(
        [{k: F(v) for k, v in r.items() if v} for r in rows], ncols))


@st.composite
def systems_with_sides(draw):
    """A system of systems() with 2 or 3 right-hand sides: its own, and
    sides A x for drawn x, half of them with one entry shifted, which makes
    them inconsistent where that row depends on the others."""
    rows, rhs, ncols = draw(systems())
    sides = [rhs]
    for _ in range(draw(st.integers(1, 2))):
        x = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        side = [sum(row[c] * x[c] for c in range(ncols)) for row in rows]
        if side and draw(st.booleans()):
            side[draw(st.integers(0, len(side) - 1))] += draw(nonzero)
        sides.append(side)
    return rows, sides, ncols


@ORACLE
@given(systems_with_sides())
def test_solver_matches_fraction_gauss_jordan_on_several_sides(system):
    rows, sides, ncols = system
    nrhs = len(sides)
    rhs = [{j: side[i] for j, side in enumerate(sides) if side[i]} for i in range(len(rows))]
    sol = solve_sparse_system([dict(r) for r in rows], rhs, ncols, nrhs)
    expected = [_fraction_solve(rows, side, ncols) for side in sides]
    assert sol.is_consistent == all(e.is_consistent for e in expected)
    if sol.is_consistent:
        for j, e in enumerate(expected):
            assert sol.particular[j::nrhs] == e.particular
            assert sol.nullspace_basis == e.nullspace_basis


@st.composite
def square_matrices(draw):
    """Square matrices up to 6 x 6, half of them with one row made a
    multiple of another."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        p = draw(entries)
        rows[i] = [p * x for x in rows[j]]
    return Matrix(rows)


@ORACLE
@given(square_matrices())
def test_invert_matches_fraction_gauss_jordan(a):
    try:
        expected = _fraction_invert(a)
    except SingularMatrixError as exc:
        with pytest.raises(SingularMatrixError) as got:
            invert(a)
        assert got.value.rank == exc.rank
    else:
        assert invert(a) == expected


def test_product_of_mismatched_shapes_is_refused():
    with pytest.raises(ValueError, match="shape mismatch 1x2 @ 1x2"):
        Matrix([[1, 2]]) @ Matrix([[1, 2]])


def test_inconsistent_solution_set_has_no_members():
    assert list(AffineSolutionSet(particular=None).members()) == []
