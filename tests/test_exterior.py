from fractions import Fraction as F

import pytest

from xcliff.exterior import (Multivector, blades, contract, det_pairing, grade,
                             wedge, blade_key)

from oracles import grade_project
from random_forms import mv


def test_wedge_ascending():
    assert wedge(mv(2, 0b01), mv(2, 0b10)) == mv(2, 0b11)


def test_wedge_one_inversion():
    assert wedge(mv(2, 0b10), mv(2, 0b01)) == mv(2, 0b11, -1)


def test_wedge_repeated_factor():
    assert not wedge(mv(2, 0b01), mv(2, 0b01))


def test_contract_dual_basis():
    assert contract(mv(1, 1), mv(1, 1)) == Multivector.blade(1, 0)


def test_contract_antiderivation_signs():
    # eps0 into e0^e1 keeps e1; eps1 crosses e0 and picks up a sign
    assert contract(mv(2, 0b01), mv(2, 0b11)) == mv(2, 0b10)
    assert contract(mv(2, 0b10), mv(2, 0b11)) == mv(2, 0b01, -1)


def test_contract_requires_grade_one():
    with pytest.raises(ValueError):
        contract(mv(2, 0b11), mv(2, 0b01))


def test_det_pairing_examples():
    assert det_pairing(wedge(mv(2, 0b01), mv(2, 0b10)), mv(2, 0b11)) == 1
    assert det_pairing(mv(2, 0b01), mv(2, 0b11)) == 0
    # swapped dual factors normalize to -eps01 first
    assert det_pairing(wedge(mv(2, 0b10), mv(2, 0b01)), mv(2, 0b11)) == -1


def test_grade_project():
    x = Multivector(2, {0: F(1), 0b01: F(1), 0b11: F(1)})
    assert grade_project(x, 0) == Multivector.blade(2, 0)
    assert grade_project(x, 1) == mv(2, 0b01)
    assert not grade_project(mv(2, 0b11), 2) - mv(2, 0b11)
    with pytest.raises(ValueError):
        grade_project(x, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wedge_associative_and_unital(n):
    one = Multivector.blade(n, 0)
    for a in blades(n):
        x = mv(n, a)
        assert wedge(one, x) == x
        assert wedge(x, one) == x
        for b in blades(n):
            y = mv(n, b)
            xy = wedge(x, y)
            for c in blades(n):
                z = mv(n, c)
                assert wedge(xy, z) == wedge(x, wedge(y, z))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wedge_graded_commutative(n):
    for a in blades(n):
        for b in blades(n):
            sign = -1 if (grade(a) & 1) and (grade(b) & 1) else 1
            assert wedge(mv(n, a), mv(n, b)) == sign * wedge(mv(n, b), mv(n, a))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_contract_squares_to_zero(n):
    for mu in range(n):
        alpha = Multivector.blade(n, 1 << mu)
        for b in blades(n):
            assert not contract(alpha, contract(alpha, mv(n, b)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_det_pairing_is_perfect(n):
    for a in blades(n):
        for b in blades(n):
            assert det_pairing(mv(n, a), mv(n, b)) == (1 if a == b else 0)


def test_blade_key():
    assert blade_key(0b101) == "0,2"
    assert blade_key(0) == ""


def test_dim_mismatch_raises():
    with pytest.raises(ValueError):
        wedge(mv(2, 1), mv(3, 1))


def test_blade_out_of_range_is_refused():
    with pytest.raises(ValueError, match="blade 2 out of range for rank 1"):
        Multivector(1, {2: 1})
