import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from xcliff.clifford import (CliffordStructure, Tensor2, check_counit_is_algebra_map,
                             check_unit_is_cogebra_map, coproduct_grades_ok,
                             coproduct_unit_signs_ok, xi_gram_determinant)
from xcliff.exterior import (Multivector, blades, contract_sign, det_pairing, grade, wedge,
                             wedge_sign)
from xcliff.scalars import Matrix

from oracles import basis_blades_of_grade, dkp_coproduct, pair_tensor2
from random_forms import random_form


def mv(n, bits, c=1):
    return Multivector.blade(n, bits, c)


def complex_structure(i2, j2):
    return CliffordStructure(1, Matrix([[F(i2)]]), Matrix([[F(j2)]]))


def zero_structure(n):
    return CliffordStructure(n, Matrix.zeros(n, n), Matrix.zeros(n, n))


# -- products -----------------------------------------------------------------

def test_vector_square_is_form_value():
    s = complex_structure(-1, 1)
    i = Multivector.basis_vector(1, 0)
    assert s.clifford_product(i, i) == Multivector.scalar(1, -1)


def test_product_unital_on_blades():
    s = CliffordStructure(2, Matrix([[0, 1], [0, 0]]), Matrix.zeros(2, 2))
    one = s.unit(1)
    for b in blades(2):
        assert s.clifford_product(one, mv(2, b)) == mv(2, b)
        assert s.clifford_product(mv(2, b), one) == mv(2, b)


def test_product_asymmetric_form():
    s = CliffordStructure(2, Matrix([[0, 1], [0, 0]]), Matrix.zeros(2, 2))
    e0, e1 = mv(2, 1), mv(2, 2)
    assert s.clifford_product(e0, e1) == Multivector(2, {0b11: F(1), 0: F(1)})
    assert s.clifford_product(e1, e0) == mv(2, 0b11, -1)


def test_dual_product_mirrors():
    # the dual product is the product with xi in the place of eta
    s = complex_structure(-1, F(5, 7))
    dual = CliffordStructure(1, s.xi, s.eta)
    j = Multivector.basis_vector(1, 0)
    assert dual.clifford_product(j, j) == Multivector.scalar(1, F(5, 7))
    s2 = CliffordStructure(2, Matrix.zeros(2, 2), Matrix.identity(2))
    dual2 = CliffordStructure(2, s2.xi, s2.eta)
    eps0 = mv(2, 1)
    assert dual2.clifford_product(s2.unit(1), eps0) == eps0
    assert dual2.clifford_product(eps0, eps0) == Multivector.scalar(2, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_associative_sampled_forms(n):
    rng = random.Random(100 + n)
    for _ in range(7):
        s = CliffordStructure(n, random_form(n, rng), Matrix.zeros(n, n))
        for a in blades(n):
            x = mv(n, a)
            for b in blades(n):
                xy = s.clifford_product(x, mv(n, b))
                for c in blades(n):
                    z = mv(n, c)
                    assert s.clifford_product(xy, z) == s.clifford_product(
                        x, s.clifford_product(mv(n, b), z))


# -- coproduct ----------------------------------------------------------------

def test_coproduct_of_unit_rank1():
    s = complex_structure(-1, F(3))
    t = s.coproduct(s.unit(1))
    assert t == Tensor2(1, {(0, 0): F(1), (1, 1): F(3)})


def test_coproduct_of_vector_is_primitive_rank1():
    s = complex_structure(-1, F(3))
    t = s.coproduct(Multivector.basis_vector(1, 0))
    assert t == Tensor2(1, {(0, 1): F(1), (1, 0): F(1)})


def test_zero_form_coproduct_of_bivector():
    s = zero_structure(2)
    t = s.coproduct(mv(2, 0b11))
    assert t == Tensor2(2, {(0, 0b11): F(1), (0b11, 0): F(1),
                            (0b01, 0b10): F(-1), (0b10, 0b01): F(1)})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coassociative_sampled_xi(n):
    rng = random.Random(200 + n)
    for _ in range(5):
        s = CliffordStructure(n, Matrix.zeros(n, n), random_form(n, rng))
        for c in blades(n):
            lhs, rhs = {}, {}
            for (a, b), v in s.coproduct_table[c].terms.items():
                for (a1, a2), w in s.coproduct_table[a].terms.items():
                    k = (a1, a2, b)
                    lhs[k] = lhs.get(k, F(0)) + v * w
                for (b1, b2), w in s.coproduct_table[b].terms.items():
                    k = (a, b1, b2)
                    rhs[k] = rhs.get(k, F(0)) + v * w
            assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_counit_law(n):
    rng = random.Random(300 + n)
    s = CliffordStructure(n, random_form(n, rng), random_form(n, rng))
    for c in blades(n):
        left, right = {}, {}
        for (a, b), v in s.coproduct_table[c].terms.items():
            if a == 0:
                left[b] = left.get(b, F(0)) + v
            if b == 0:
                right[a] = right.get(a, F(0)) + v
        assert {k: v for k, v in left.items() if v} == {c: F(1)}
        assert {k: v for k, v in right.items() if v} == {c: F(1)}


# -- the Chevalley recursion, the oracle for the cliffordization --------------

def chevalley_table(form: Matrix) -> dict:
    """{(s, t): e_s * e_t} for the product deformed by form, by the peel rule
    v * x = v ^ x + B(v, .) . x on a vector v and
    (v ^ x) * y = v * (x * y) - (B(v, .) . x) * y, memoized over blade pairs."""
    rows = [[(j, v) for j, v in enumerate(row) if v] for row in form.rows]
    cache: dict = {}

    def vector_product(v, x):
        out: dict = {}
        for bits, c in x.items():
            if not bits >> v & 1:
                k = bits | 1 << v
                out[k] = out.get(k, F(0)) + wedge_sign(1 << v, bits) * c
            for mu, b in rows[v]:
                if bits >> mu & 1:
                    k = bits ^ 1 << mu
                    out[k] = out.get(k, F(0)) + contract_sign(mu, bits) * b * c
        return {k: c for k, c in out.items() if c}

    def product(s, t):
        if (s, t) not in cache:
            if not s:
                cache[(s, t)] = {t: F(1)}
                return cache[(s, t)]
            v = (s & -s).bit_length() - 1
            rest = s ^ 1 << v
            out = vector_product(v, product(rest, t))
            for mu, b in rows[v]:
                if rest >> mu & 1:
                    for k, c in product(rest ^ 1 << mu, t).items():
                        out[k] = out.get(k, F(0)) - b * contract_sign(mu, rest) * c
            cache[(s, t)] = {k: c for k, c in out.items() if c}
        return cache[(s, t)]

    return {(s, t): product(s, t) for s in blades(form.nrows) for t in blades(form.nrows)}


rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


def forms(n: int, kind: str):
    if kind == "zero":
        return st.just(Matrix.zeros(n, n))
    if kind == "diagonal":
        return st.lists(rationals, min_size=n, max_size=n).map(
            lambda d: Matrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)]))
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Matrix)


@st.composite
def form_pairs(draw):
    """(rank, eta, xi, s, t): two forms of any family and one blade pair."""
    n = draw(st.integers(0, 4))
    kinds = st.sampled_from(["zero", "diagonal", "generic"])
    blade = st.integers(0, (1 << n) - 1)
    return (n, draw(forms(n, draw(kinds))), draw(forms(n, draw(kinds))),
            draw(blade), draw(blade))


GENERIC4 = (Matrix([[1, F(1, 2), 0, 2], [-1, 2, 1, 0], [0, F(1, 3), -1, 1], [3, 0, -2, F(1, 2)]]),
            Matrix([[2, -1, 1, 0], [F(1, 2), 1, 0, -3], [-2, 0, 1, 1], [1, F(2, 3), -1, 0]]))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(form_pairs())
@example((4, *GENERIC4, 0b1110, 0b0111))
def test_products_match_chevalley_recursion(case):
    n, eta, xi, s, t = case
    structure = CliffordStructure(n, eta, xi)
    assert structure.product_table == chevalley_table(eta)
    assert CliffordStructure(n, xi, eta).product_table == chevalley_table(xi)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_coproduct_duality(n):
    # dual products recomputed from scratch, then paired against the
    # transposed-constant coproduct
    rng = random.Random(400 + n)
    for _ in range(10):
        xi = random_form(n, rng)
        s = CliffordStructure(n, Matrix.zeros(n, n), xi)
        dual = CliffordStructure(n, xi, Matrix.zeros(n, n)).product_table
        for p in blades(n):
            for q in blades(n):
                prod = Multivector(n, dual[(p, q)])
                for x in blades(n):
                    lhs = det_pairing(prod, mv(n, x))
                    rhs = pair_tensor2(mv(n, p), mv(n, q), s.coproduct_table[x])
                    assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coproduct_unit_gram_sign_pattern(n):
    rng = random.Random(500 + n)
    for _ in range(6):
        xi = random_form(n, rng)  # asymmetric in general
        s = CliffordStructure(n, Matrix.zeros(n, n), xi)
        cop1 = s.coproduct_table[0]
        for k in range(n + 1):
            sign = -1 if (k // 2) % 2 else 1
            for a in basis_blades_of_grade(n, k):
                for b in basis_blades_of_grade(n, k):
                    assert cop1.terms.get((a, b), F(0)) == sign * xi_gram_determinant(xi, b, a)
        for (a, b) in cop1.terms:
            assert grade(a) == grade(b)


def test_displayed_series_symmetric_form():
    # for a symmetric co-vector form the low-grade coproduct series has the
    # closed shape below (checked exactly at rank 2, where no higher terms fit)
    rng = random.Random(77)
    for _ in range(5):
        xi = random_form(2, rng, symmetric=True)
        s = CliffordStructure(2, Matrix.zeros(2, 2), xi)
        e = [Multivector.basis_vector(2, 0), Multivector.basis_vector(2, 1)]
        one = s.unit(1)
        expect = Tensor2.outer(one, one)
        for m in range(2):
            for v in range(2):
                expect = expect + xi[(m, v)] * Tensor2.outer(e[m], e[v])
        det = xi[(0, 0)] * xi[(1, 1)] - xi[(0, 1)] * xi[(1, 0)]
        expect = expect + (-det) * Tensor2.outer(mv(2, 0b11), mv(2, 0b11))
        assert s.coproduct(one) == expect

        v = e[0]
        expect = Tensor2.outer(one, v) + Tensor2.outer(v, one)
        for m in range(2):
            for nu in range(2):
                wedge_part = wedge(v, e[nu])
                if wedge_part:
                    expect = expect + xi[(m, nu)] * (
                        Tensor2.outer(e[m], wedge_part) - Tensor2.outer(wedge_part, e[m]))
        assert s.coproduct(v) == expect

        vw = mv(2, 0b11)
        expect = (Tensor2.outer(one, vw) + Tensor2.outer(vw, one)
                  - Tensor2.outer(e[0], e[1]) + Tensor2.outer(e[1], e[0]))
        assert s.coproduct(vw) == expect


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_zero_form_coproduct_equals_unshuffle(n):
    rng = random.Random(600 + n)
    s = CliffordStructure(n, random_form(n, rng), Matrix.zeros(n, n))
    for c in blades(n):
        assert s.coproduct(mv(n, c)) == dkp_coproduct(mv(n, c))


@pytest.mark.parametrize("pairing", ["inner", "straight"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_form_coproduct_is_the_pairings_signed_unshuffle(n, pairing):
    # at zero xi the inner table is dkp_coproduct's signed unshuffle and the
    # straight table its (A, B) -> (B, A) transpose, whatever eta is
    rng = random.Random(620 + n)
    for eta in (Matrix.zeros(n, n), random_form(n, rng, nonzero=True)):
        s = CliffordStructure(n, eta, Matrix.zeros(n, n), pairing=pairing)
        for c in blades(n):
            expected = {((a, b) if pairing == "inner" else (b, a)): v
                        for (a, b), v in dkp_coproduct(mv(n, c)).terms.items()}
            assert s.coproduct(mv(n, c)).terms == expected


def test_dkp_examples():
    assert dkp_coproduct(Multivector.scalar(2, 1)) == Tensor2(2, {(0, 0): F(1)})
    assert dkp_coproduct(mv(2, 0b01)) == Tensor2(2, {(0, 0b01): F(1), (0b01, 0): F(1)})
    assert dkp_coproduct(mv(2, 0b11)) == Tensor2(
        2, {(0, 0b11): F(1), (0b11, 0): F(1), (0b01, 0b10): F(-1), (0b10, 0b01): F(1)})


# -- tensor-square pairing --------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_straight_pairing_transposes_inner_table(n):
    rng = random.Random(800 + n)
    for _ in range(4):
        eta, xi = random_form(n, rng), random_form(n, rng)
        inner = CliffordStructure(n, eta, xi)
        straight = CliffordStructure(n, eta, xi, pairing="straight")
        assert straight.product_table == inner.product_table
        for c in blades(n):
            flipped = {(b, a): v for (a, b), v in inner.coproduct_table[c].terms.items()}
            assert straight.coproduct_table[c] == Tensor2(n, flipped)


def test_pairings_agree_at_rank1():
    rng = random.Random(810)
    for _ in range(5):
        eta, xi = random_form(1, rng), random_form(1, rng)
        assert (CliffordStructure(1, eta, xi, pairing="straight").coproduct_table
                == CliffordStructure(1, eta, xi).coproduct_table)


def test_straight_zero_form_coproduct_of_bivector():
    # the standard super-Hopf unshuffle: sign wedge_sign(A, B), not (B, A)
    s = CliffordStructure(2, Matrix([[0, 1], [0, 0]]), Matrix.zeros(2, 2), pairing="straight")
    assert s.coproduct(mv(2, 0b11)) == Tensor2(2, {(0, 0b11): F(1), (0b11, 0): F(1),
                                                   (0b01, 0b10): F(1), (0b10, 0b01): F(-1)})


def test_unknown_pairing_rejected():
    with pytest.raises(ValueError):
        CliffordStructure(1, Matrix([[1]]), Matrix([[1]]), pairing="outer")


def test_structure_config_roundtrip_keeps_pairing():
    s = CliffordStructure(2, Matrix.identity(2), Matrix([[0, 1], [0, 0]]), pairing="straight")
    cfg = s.to_config()
    assert cfg["pairing"] == "straight"
    s2 = CliffordStructure.from_config(cfg)
    assert s2.pairing == "straight"
    assert s2.coproduct_table == s.coproduct_table
    assert CliffordStructure.from_config(complex_structure(1, 2).to_config()).pairing == "inner"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coproduct_grade_compatibility(n):
    rng = random.Random(700 + n)
    s = CliffordStructure(n, random_form(n, rng), random_form(n, rng))
    assert coproduct_grades_ok(s)
    for c in blades(n):
        for (a, b) in s.coproduct_table[c].terms:
            total = grade(a) + grade(b)
            assert total >= grade(c) and (total - grade(c)) % 2 == 0


def _planted_unit_coproduct(pairing, plant):
    """A rank-2 structure (xi not symmetric) whose stored coproduct(1) has
    one planted entry, or is the other pairing's coproduct(1)."""
    eta, xi = Matrix([[1, F(1, 2)], [-1, 2]]), Matrix([[1, -1], [F(1, 2), 1]])
    s = CliffordStructure(2, eta, xi, pairing=pairing)
    col = s.maps.cop.cols[(0,)]
    if plant == "entry":
        col[(1, 2)] += 1
    elif plant == "cross_grade":
        col[(0, 1)] = F(1)
    elif plant == "other_pairing":
        other = "straight" if pairing == "inner" else "inner"
        col.clear()
        col.update(CliffordStructure(2, eta, xi, pairing=other).maps.cop.cols[(0,)])
    return s


@pytest.mark.parametrize("pairing", ["inner", "straight"])
@pytest.mark.parametrize("plant", ["entry", "cross_grade", "other_pairing"])
def test_unit_sign_check_sees_a_planted_coproduct_entry(pairing, plant):
    assert coproduct_unit_signs_ok(_planted_unit_coproduct(pairing, None))
    assert not coproduct_unit_signs_ok(_planted_unit_coproduct(pairing, plant))



# -- morphism failures ----------------------------------------------------------

def test_counit_algebra_map_iff_form_vanishes():
    ok, witness = check_counit_is_algebra_map(zero_structure(2))
    assert ok and witness is None
    ok, witness = check_counit_is_algebra_map(complex_structure(-1, 0))
    assert not ok
    x, y = witness
    assert x == mv(1, 1) and y == mv(1, 1)
    ok, witness = check_counit_is_algebra_map(
        CliffordStructure(2, Matrix.identity(2), Matrix.zeros(2, 2)))
    assert not ok and witness == (mv(2, 1), mv(2, 1))
    rng = random.Random(31)
    for _ in range(10):
        s = CliffordStructure(2, random_form(2, rng, nonzero=True), Matrix.zeros(2, 2))
        assert not check_counit_is_algebra_map(s)[0]


def test_unit_cogebra_map_iff_form_vanishes():
    ok, defect = check_unit_is_cogebra_map(zero_structure(2))
    assert ok and defect is None
    ok, defect = check_unit_is_cogebra_map(complex_structure(0, 1))
    assert not ok and defect == Tensor2(1, {(1, 1): F(1)})
    ok, defect = check_unit_is_cogebra_map(
        CliffordStructure(2, Matrix.zeros(2, 2), Matrix.identity(2)))
    assert not ok
    rng = random.Random(37)
    for _ in range(10):
        s = CliffordStructure(2, Matrix.zeros(2, 2), random_form(2, rng, nonzero=True))
        assert not check_unit_is_cogebra_map(s)[0]


def test_structure_config_roundtrip():
    s = complex_structure(-1, F(1, 2))
    cfg = s.to_config()
    assert cfg == {"n": 1, "eta": [["-1"]], "xi": [["1/2"]]}
    s2 = CliffordStructure.from_config(cfg)
    assert s2.eta == s.eta and s2.xi == s.xi


def test_tensor2_json_roundtrip():
    t = Tensor2(2, {(0b01, 0b10): F(-1, 2), (0, 0): F(3)})
    data = t.to_json()
    assert data == [["", "", "3"], ["0", "1", "-1/2"]]
    assert Tensor2.from_json(2, data) == t
