import random
from fractions import Fraction as F

import pytest

from xcliff.scalars import (AffineSolutionSet, Matrix, SingularMatrixError,
                            format_scalar, invert, is_invertible,
                            minimal_polynomial, parse_scalar, poly_eval_matrix,
                            rank, solve_linear_system)


def test_scalar_parse_format():
    assert parse_scalar("3/4") == F(3, 4)
    assert parse_scalar("-7") == F(-7)
    assert format_scalar(F(2, 4)) == "1/2"
    assert format_scalar(F(5, 1)) == "5"
    assert format_scalar(F(-1, 2)) == "-1/2"


@pytest.mark.parametrize("bad", [1, None, F(1, 2), " 3/0", "x"])
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
    return a.apply(v)


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
