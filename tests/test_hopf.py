import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from xcliff import cli
from xcliff.cli import antipode_report_json
from xcliff.clifford import PAIRINGS, CliffordStructure
from xcliff.exterior import Multivector, blades, grade
from xcliff.hopf import (antipode_map, complex_antipode_closed_form, convolution,
                         solve_antipode, unit_counit_endo)
from xcliff import hopf
from xcliff.linmap import LinearMap, keys
from xcliff.scalars import Matrix

from oracles import apply_endo, endo_from_images
from random_forms import random_form, random_nonzero_rational


def conjecture_record(s):
    """The conjecture record with the antipode solved here."""
    return cli.conjecture_record(s, hopf.solve_antipode(s))


def complex_structure(i2, j2):
    return CliffordStructure(1, Matrix([[F(i2)]]), Matrix([[F(j2)]]))


def test_convolution_of_identity_doubles_primitives():
    s = CliffordStructure(1, Matrix.zeros(1, 1), Matrix.zeros(1, 1))
    idm = s.maps.id
    conv = convolution(idm, idm, s)
    assert apply_endo(conv, Multivector.basis_vector(1, 0)) == Multivector(1, {1: F(2)})


def test_convolution_unit_on_group_like():
    s = CliffordStructure(1, Matrix.zeros(1, 1), Matrix.zeros(1, 1))
    ue = unit_counit_endo(s)
    assert apply_endo(convolution(ue, ue, s), s.unit(1)) == s.unit(1)


def test_convolution_identity_on_unit_with_nonzero_forms():
    i2, j2 = F(-1), F(1)
    s = complex_structure(i2, j2)
    conv = convolution(s.maps.id, s.maps.id, s)
    expected = 1 + j2 * i2  # unit splits as 1x1 plus the form-weighted i x i
    assert apply_endo(conv, s.unit(1)) == Multivector(1, {0: expected})


def test_convolution_associative_and_unital_rank1():
    s = complex_structure(-1, F(1, 2))
    dim = 2
    # elementary endomorphisms E[p, c] span End, so checking them is exhaustive
    elems = []
    for p in range(dim):
        for c in range(dim):
            images = [Multivector.blade(1, p) if b == c else Multivector.zero(1)
                      for b in range(dim)]
            elems.append(endo_from_images(s, images))
    ue = unit_counit_endo(s)
    for f in elems:
        assert convolution(ue, f, s) == f
        assert convolution(f, ue, s) == f
        for g in elems:
            fg = convolution(f, g, s)
            for h in elems:
                assert convolution(fg, h, s) == convolution(f, convolution(g, h, s), s)


def test_convolution_associative_sampled_rank2():
    rng = random.Random(9)
    s = CliffordStructure(2, random_form(2, rng), random_form(2, rng))
    dim = 4
    def rand_endo():
        return endo_from_images(
            s, [Multivector(2, {b: F(rng.randint(-2, 2)) for b in blades(2)})
                for _ in range(dim)])
    for _ in range(3):
        f, g, h = rand_endo(), rand_endo(), rand_endo()
        assert (convolution(convolution(f, g, s), h, s)
                == convolution(f, convolution(g, h, s), s))


def test_antipode_closed_form_values():
    def closed_form(a):
        return complex_antipode_closed_form(a).to_matrix(keys(1, 1))

    assert closed_form(F(-1)) == Matrix([[F(1, 2), 0], [0, F(-1, 2)]])
    assert closed_form(F(0)) == Matrix([[1, 0], [0, -1]])
    assert closed_form(F(2)) == Matrix([[-1, 0], [0, 1]])
    with pytest.raises(ValueError):
        complex_antipode_closed_form(F(1))


def test_antipode_solver_matches_closed_form():
    s = complex_structure(-1, 1)
    sol = solve_antipode(s)
    assert sol.is_unique
    assert antipode_map(s, sol.particular) == complex_antipode_closed_form(F(-1))


def test_antipode_absent_when_composite_is_identity():
    for i2, j2 in [(1, 1), (-1, -1), (F(1, 2), 2)]:
        sol = solve_antipode(complex_structure(i2, j2))
        assert not sol.is_consistent


def test_antipode_sampled_parameters_match_closed_form():
    rng = random.Random(41)
    seen = 0
    while seen < 20:
        i2 = random_nonzero_rational(rng)
        j2 = random_nonzero_rational(rng)
        a = i2 * j2
        if a == 1:
            continue
        seen += 1
        s = complex_structure(i2, j2)
        sol = solve_antipode(s)
        assert sol.is_unique
        assert antipode_map(s, sol.particular) == complex_antipode_closed_form(a)


def test_antipode_uniqueness_whenever_it_exists():
    rng = random.Random(43)
    for n in (1, 2):
        for _ in range(6):
            s = CliffordStructure(n, random_form(n, rng), random_form(n, rng))
            sol = solve_antipode(s)
            if sol.is_consistent:
                assert sol.nullspace_basis == ()


def test_antipode_two_sided_axiom_resubstitutes():
    rng = random.Random(47)
    for n in (1, 2):
        for _ in range(4):
            s = CliffordStructure(n, random_form(n, rng), random_form(n, rng))
            sol = solve_antipode(s)
            if not sol.is_consistent:
                continue
            m = antipode_map(s, sol.particular)
            ue = unit_counit_endo(s)
            idm = s.maps.id
            assert convolution(m, idm, s) == ue
            assert convolution(idm, m, s) == ue


def test_zero_xi_antipode_low_grades():
    # with the co-vector form zero the antipode exists for every eta and acts
    # as 1 -> 1, v -> -v; the bivector image picks up a fixed -3 dilation plus
    # the antisymmetric part of eta landing in the scalar blade
    rng = random.Random(53)
    for n in (2, 3):
        for _ in range(5):
            eta = random_form(n, rng)
            s = CliffordStructure(n, eta, Matrix.zeros(n, n))
            sol = solve_antipode(s)
            assert sol.is_unique
            m = antipode_map(s, sol.particular)
            assert apply_endo(m, s.unit(1)) == s.unit(1)
            for i in range(n):
                v = Multivector.basis_vector(n, i)
                assert apply_endo(m, v) == -1 * v
            for i in range(n):
                for j in range(i + 1, n):
                    blade = (1 << i) | (1 << j)
                    skew = eta[(i, j)] - eta[(j, i)]
                    expected = Multivector(n, {blade: F(-3), 0: -skew})
                    assert apply_endo(m, Multivector.blade(n, blade)) == expected


def test_zero_xi_antipode_grade2_straight_pairing():
    # under the straight pairing the bivector image is +1 times the blade,
    # with the skew part of eta leaking into the scalar blade with a plus sign
    rng = random.Random(54)
    for n in (2, 3):
        for _ in range(5):
            eta = random_form(n, rng)
            s = CliffordStructure(n, eta, Matrix.zeros(n, n), pairing="straight")
            sol = solve_antipode(s)
            assert sol.is_unique
            m = antipode_map(s, sol.particular)
            assert apply_endo(m, s.unit(1)) == s.unit(1)
            for i in range(n):
                v = Multivector.basis_vector(n, i)
                assert apply_endo(m, v) == -1 * v
            for i in range(n):
                for j in range(i + 1, n):
                    blade = (1 << i) | (1 << j)
                    skew = eta[(i, j)] - eta[(j, i)]
                    expected = Multivector(n, {blade: F(1), 0: skew})
                    assert apply_endo(m, Multivector.blade(n, blade)) == expected


def test_conjecture_records():
    rec = conjecture_record(complex_structure(1, 1))
    assert rec.xi_eta_is_identity and not rec.antipode_exists and rec.conjecture_consistent
    rec = conjecture_record(complex_structure(-1, 1))
    assert not rec.xi_eta_is_identity and rec.antipode_exists and rec.conjecture_consistent
    # rank 2 with composite identity: evidence recorded, not asserted
    s = CliffordStructure(2, Matrix.identity(2), Matrix.identity(2))
    rec = conjecture_record(s)
    assert rec.xi_eta_is_identity
    assert rec.conjecture_consistent == (rec.antipode_exists == (not rec.xi_eta_is_identity))


def test_antipode_report_json_shape():
    report = antipode_report_json(complex_structure(-1, 1))
    assert report["a"] == "-1"
    assert report["antipode"] == [["1/2", "0"], ["0", "-1/2"]]
    assert report["conjecture_consistent"] is True
    report = antipode_report_json(complex_structure(1, 1))
    assert report["antipode"] is None


# -- the bigebra laws and the shared antipode ---------------------------------------------

@pytest.mark.parametrize("pairing", ["inner", "straight"])
@pytest.mark.parametrize("n", [1, 2])
def test_bigebra_laws_hold_at_sampled_forms(n, pairing):
    rng = random.Random(900 + n)
    for _ in range(3):
        s = CliffordStructure(n, random_form(n, rng), random_form(n, rng), pairing=pairing)
        assert hopf.product_associative(s) and hopf.unital(s)
        assert hopf.coassociative(s) and hopf.counital(s)
        assert hopf.bigebra_laws(s)


def test_unit_law_fails_on_a_planted_product_entry():
    s = complex_structure(2, F(1, 3))
    s.maps.m.cols[(0, 1)][(1,)] += 1  # 1 * e1 = 2 e1
    assert not hopf.unital(s)
    assert not hopf.bigebra_laws(s)


def test_antipode_is_solved_once_per_structure(monkeypatch):
    calls = []
    original = hopf.solve_antipode

    def counted(structure):
        calls.append(structure)
        return original(structure)

    monkeypatch.setattr(hopf, "solve_antipode", counted)
    s = complex_structure(2, F(1, 3))
    sol = hopf.antipode_solution(s)
    assert hopf.antipode_solution(s) is sol and s.antipode is sol
    assert sol == original(s)
    hopf.antipode_solution(complex_structure(2, F(1, 3)))
    assert len(calls) == 2


# -- the antipode as the convolution inverse of id ----------------------------------------

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


@st.composite
def structures(draw):
    """A rank 1-3 structure of any family of forms, under either pairing."""
    n = draw(st.sampled_from([1, 2, 3]))
    eta_kind, xi_kind = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    return CliffordStructure(n, draw(forms(n, eta_kind)), draw(forms(n, xi_kind)),
                             pairing=draw(st.sampled_from(PAIRINGS)))


def count_rows(monkeypatch):
    """The row counts of the linear systems hopf solves from now on."""
    calls = []
    original = hopf.solve_sparse_system

    def counted(rows, rhs, ncols):
        calls.append(len(rows))
        return original(rows, rhs, ncols)

    monkeypatch.setattr(hopf, "solve_sparse_system", counted)
    return calls


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(structures())
def test_krylov_antipode_matches_the_linear_system(s):
    sol = solve_antipode(s)
    assert sol == hopf.solve_antipode_system(s)
    assert sol.is_unique or not sol.is_consistent
    if sol.is_consistent:
        assert hopf.is_antipode(s, hopf.antipode_map(s, sol.particular))


@pytest.mark.parametrize("a", [F(1), F(2), F(-1), F(1, 3)])
def test_rank1_constant_term_is_a_minus_one(monkeypatch, a):
    # id * id = 2 id + (a - 1) u . counit, so no antipode exactly at a = 1
    s = complex_structure(a, 1)
    rows = count_rows(monkeypatch)
    assert hopf.id_powers(s)[1] == (a - 1, 2)
    sol = solve_antipode(s)
    assert 2 * 4 not in rows
    assert sol.is_consistent == (a != 1)
    assert sol == hopf.solve_antipode_system(s)


@pytest.mark.parametrize("pairing, c, exists", [("straight", (0, 4), False),
                                                ("inner", (4, 0), True)])
def test_rank2_identity_forms_decided_by_the_constant_term(monkeypatch, pairing, c, exists):
    # eta = xi = id: id * id = 4 id under "straight", a zero divisor, and
    # id * id = 4 u . counit under "inner", so S = id/4
    s = CliffordStructure(2, Matrix.identity(2), Matrix.identity(2), pairing=pairing)
    rows = count_rows(monkeypatch)
    assert hopf.id_powers(s)[1] == c
    sol = solve_antipode(s)
    assert 2 * 16 not in rows
    assert sol.is_consistent == exists
    if exists:
        assert antipode_map(s, sol.particular) == LinearMap(1, {x: {x: F(1, 4)}
                                                                for x in keys(2, 1)})
    assert sol == hopf.solve_antipode_system(s)


def test_broken_coassociativity_takes_the_linear_solve(monkeypatch):
    # the coefficient of e2 (x) e12 in coproduct(e1), 1/2, planted as 3/2,
    # breaks coassociativity alone; the antipode system keeps its unique
    # solution
    s = CliffordStructure(2, Matrix([[2, 0], [0, -1]]), Matrix([[F(-1, 3), 0], [0, F(1, 2)]]))
    s.maps.cop.cols[(0b01,)][(0b10, 0b11)] += 1
    rows = count_rows(monkeypatch)
    sol = solve_antipode(s)
    assert rows == [2 * 16]
    assert not hopf.bigebra_laws(s)
    assert sol.is_unique and sol == hopf.solve_antipode_system(s)


def test_verify_evaluates_each_law_once(monkeypatch):
    # only associativity checks of this structure's product map are counted
    s = CliffordStructure(2, Matrix([[1, F(1, 2)], [-1, 2]]), Matrix([[1, -1], [F(1, 2), 1]]))
    products = []
    original = hopf.associative

    def counted(m, n):
        if m is s.maps.m:
            products.append(m)
        return original(m, n)

    monkeypatch.setattr(hopf, "associative", counted)
    report = cli.build_instance_report(s, 2)
    assert report["hard_pass"] and report["antipode"]["unique"]
    assert report["sigma"]["solution_space_dim"] == 0
    assert len(products) == 1
    assert s.laws == {"product_associative": True, "unital": True,
                      "coassociative": True, "counital": True}
