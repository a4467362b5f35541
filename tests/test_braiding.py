import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from xcliff import braiding, hopf
from xcliff.braiding import (_direct, braid_relation, check_braid_equation, check_braided,
                             check_min_polynomial, closed_form_sigma, compatibility_defect,
                             scattering_map, solve_sigma)
from xcliff.cli import _rank1_checks, _scattering, _verify_sigma
from xcliff.clifford import PAIRINGS, CliffordStructure, Tensor2
from xcliff.exterior import Multivector
from xcliff.linmap import LinearMap, chain, differences, keys
from xcliff.scalars import AffineSolutionSet, Matrix, invert, solve_sparse_system

from oracles import (_routed, antipode_scattering, is_invertible, minimal_polynomial,
                     module_action, poly_eval_matrix, scattering_system, solve_linear_system,
                     switch_map, twelve_param_family_member)
from random_forms import (FAMILIES, complex_structure, forms,
                          random_nonzero_rational, rationals)


def pair_identity(n):
    return LinearMap(2, {x: {x: F(1)} for x in keys(n, 2)})


def map_of_rows(rows, basis):
    """The map whose image of basis[j] has coefficient rows[i][j] at basis[i]."""
    return LinearMap(len(basis[0]), {x: {y: rows[i][j] for i, y in enumerate(basis) if rows[i][j]}
                                     for j, x in enumerate(basis)})


def solved_sigma(structure):
    return scattering_map(structure, solve_sigma(structure).particular)


def sigma_closed_form_minus_one():
    h = F(1, 2)
    return LinearMap(2, {
        (0, 0): {(0, 0): h, (1, 1): -h},
        (1, 1): {(0, 0): h, (1, 1): -h},
        (0, 1): {(1, 0): h, (0, 1): -h},
        (1, 0): {(0, 1): h, (1, 0): -h},
    })


# -- compatibility ---------------------------------------------------------------

def test_graded_switch_compatible_with_zero_forms_rank1():
    s = complex_structure(0, 0)
    assert not compatibility_defect(s, switch_map(1, graded=True))


def test_closed_form_solves_compatibility():
    s = complex_structure(-1, 1)
    assert not compatibility_defect(s, closed_form_sigma(-1, 1))


def test_identity_scattering_leaves_defect():
    s = complex_structure(-1, 1)
    defects = compatibility_defect(s, pair_identity(1))
    assert defects
    assert (1, 1) in defects  # the odd-odd input pair witnesses the failure


def test_compatibility_shape_mismatch():
    s = complex_structure(-1, 1)
    with pytest.raises(ValueError):
        compatibility_defect(s, LinearMap(3, {x: {x: F(1)} for x in keys(1, 3)}))


# -- solving ----------------------------------------------------------------------

def test_solver_reproduces_closed_form_minus_one():
    s = complex_structure(-1, 1)
    sol = solve_sigma(s)
    assert sol.is_unique
    sigma = scattering_map(s, sol.particular)
    assert sigma == closed_form_sigma(-1, 1)
    assert sigma == sigma_closed_form_minus_one()


def test_solution_space_is_twelve_dimensional_at_unit_composite():
    for i2, j2 in [(1, 1), (-1, -1)]:
        sol = solve_sigma(complex_structure(i2, j2))
        assert sol.is_consistent
        assert sol.dimension == 12


def test_solver_unique_matches_closed_form_sampled():
    rng = random.Random(61)
    seen = 0
    while seen < 10:
        i2 = random_nonzero_rational(rng)
        j2 = random_nonzero_rational(rng)
        if i2 * j2 == 1:
            continue
        seen += 1
        s = complex_structure(i2, j2)
        sol = solve_sigma(s)
        assert sol.is_unique
        assert scattering_map(s, sol.particular) == closed_form_sigma(i2, j2)


def test_every_solution_member_solves_square():
    s = complex_structure(1, 1)
    sol = solve_sigma(s)
    for member in sol.members():
        sigma = scattering_map(s, member)
        assert not compatibility_defect(s, sigma)


# -- closed form -------------------------------------------------------------------

def test_closed_form_limit_is_graded_switch():
    assert closed_form_sigma(0, 0) == switch_map(1, graded=True)


def test_closed_form_odd_odd_with_half_parameter():
    col = closed_form_sigma(1, F(1, 2)).cols[(1, 1)]
    assert col[(1, 1)] == F(-2)
    assert col[(0, 0)] == F(-2)


def test_closed_form_rejects_unit_composite():
    with pytest.raises(ValueError):
        closed_form_sigma(1, 1)


# -- minimal polynomial --------------------------------------------------------------

def test_quartic_annihilates_closed_form():
    assert check_min_polynomial(closed_form_sigma(-1, 1), F(-1))
    assert check_min_polynomial(closed_form_sigma(0, 0), F(0))
    rng = random.Random(67)
    seen = 0
    while seen < 10:
        i2 = random_nonzero_rational(rng)
        j2 = random_nonzero_rational(rng)
        if i2 * j2 == 1:
            continue
        seen += 1
        assert check_min_polynomial(closed_form_sigma(i2, j2), i2 * j2)


def test_quartic_fails_for_identity():
    assert not check_min_polynomial(pair_identity(1), F(-1))


def test_quartic_rejects_unit_composite():
    with pytest.raises(ValueError):
        check_min_polynomial(pair_identity(1), F(1))


def quartic(a):
    """Ascending coefficients of (x + 1)(x - b)(x^2 + a b x - b), b = (1 + a)/(1 - a)."""
    b = (1 + a) / (1 - a)
    out = [F(0)] * 5
    for i, u in enumerate([-b, 1 - b, F(1)]):  # (x + 1)(x - b)
        for j, v in enumerate([-b, a * b, F(1)]):
            out[i + j] += u * v
    return out


small = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
off_unit = small.filter(lambda a: a != 1)


@st.composite
def quartic_cases(draw):
    """(map on rank-1 blade pairs, parameter product a != 1): closed forms at
    their own or at another product, twelve-parameter family members,
    diagonal maps with eigenvalues among -1, b and 0, and random rational
    maps."""
    a = draw(off_unit)
    kind = draw(st.sampled_from(["closed", "family", "eigen", "random"]))
    if kind == "closed":
        i2 = draw(small.filter(bool))
        j2 = draw(small.filter(lambda j: i2 * j != 1))
        return closed_form_sigma(i2, j2), draw(st.sampled_from([i2 * j2, a]))
    if kind == "family":
        p, q = draw(small), draw(small)
        return twelve_param_family_member(p, q, -p - q, draw(small)), a
    if kind == "eigen":
        b = (1 + a) / (1 - a)
        diag = draw(st.lists(st.sampled_from([F(-1), b, F(0)]), min_size=4, max_size=4))
        return LinearMap(2, {x: {x: diag[i]} for i, x in enumerate(keys(1, 2))}), a
    return map_of_rows(draw(st.lists(st.lists(small, min_size=4, max_size=4),
                                     min_size=4, max_size=4)), keys(1, 2)), a


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(quartic_cases())
@example((closed_form_sigma(2, F(1, 3)), F(2, 3)))
@example((closed_form_sigma(2, F(1, 3)), F(-1)))
@example((twelve_param_family_member(1, 2, -3, F(1, 2)), F(0)))
@example((LinearMap(2, {}), F(-1)))
def test_quartic_check_matches_dense_evaluation(case):
    sigma, a = case
    dense = sigma.to_matrix(keys(1, 2))
    assert check_min_polynomial(sigma, a) == poly_eval_matrix(quartic(a), dense).is_zero()


def test_quartic_requires_a_square_matrix():
    with pytest.raises(ValueError, match="rank-1 blades"):
        check_min_polynomial(LinearMap(2, {(0, 0): {(1, 2): F(1)}}), F(-1))


def test_quartic_verdict_depends_on_the_map_only():
    # the zero map with no columns and with every pair's column listed (and
    # empty) are equal maps; at a = 0 the quartic leaves b^2 = 1 on each pair
    listed = LinearMap(2, {x: {} for x in keys(1, 2)})
    assert LinearMap(2, {}) == listed
    assert check_min_polynomial(LinearMap(2, {}), 0) is False
    assert check_min_polynomial(listed, 0) is False


def test_switch_squares_to_identity_at_zero_parameter():
    sigma = closed_form_sigma(0, 0).to_matrix(keys(1, 2))
    assert sigma @ sigma == Matrix.identity(4)


def _poly_divides(d, p):
    # exact polynomial division of p by d over the rationals
    p = list(p)
    while len(p) >= len(d):
        if not p[-1]:
            p.pop()
            continue
        q = p[-1] / d[-1]
        shift = len(p) - len(d)
        for i, c in enumerate(d):
            p[shift + i] -= q * c
        assert not p[-1]
        p.pop()
    return all(not c for c in p)


def test_minimal_polynomial_divides_displayed_quartic_at_minus_one():
    # at parameter product -1 the quartic factors as x^3 (x + 1)
    sigma = closed_form_sigma(-1, 1).to_matrix(keys(1, 2))
    mp = minimal_polynomial(sigma)
    quartic = [F(0), F(0), F(0), F(1), F(1)]  # x^3 + x^4 = x^3 (x + 1)
    assert _poly_divides(mp, quartic)
    assert poly_eval_matrix(mp, sigma).is_zero()


# -- braid equation ------------------------------------------------------------------

def test_plain_switch_satisfies_braid_equation():
    ok, bad = check_braid_equation(switch_map(1, graded=False), 1)
    assert ok and bad is None
    ok, _ = check_braid_equation(switch_map(2, graded=True), 2)
    assert ok


def test_braid_equation_at_zero_parameter():
    for i2, j2 in [(0, 0), (1, 0), (0, 1), (2, 0)]:
        ok, bad = check_braid_equation(closed_form_sigma(i2, j2), 1)
        assert ok and bad is None


def test_braid_equation_status_recorded_away_from_zero():
    # exact evaluation; the status is recorded evidence, stable across runs
    outcomes = {}
    for i2, j2 in [(-1, 1), (1, F(1, 2)), (2, 1), (F(1, 3), 1)]:
        ok, bad = check_braid_equation(closed_form_sigma(i2, j2), 1)
        outcomes[(F(i2), F(j2))] = (ok, bad)
        assert isinstance(ok, bool)
    # every sampled nonzero parameter failed the relation in exact arithmetic
    assert all(not ok for ok, _ in outcomes.values())


def _braid_maps():
    """Switch maps and closed-form scatterings at ranks 1 and 2."""
    out = [(switch_map(n, graded), n) for n in (1, 2) for graded in (False, True)]
    out += [(closed_form_sigma(i2, j2), 1)
            for i2, j2 in [(0, 0), (2, 0), (-1, 1), (1, F(1, 2)), (F(1, 3), 1)]]
    for eta, xi in [(Matrix.zeros(2, 2), Matrix.zeros(2, 2)),
                    (Matrix([[1, F(1, 2)], [-1, 2]]), Matrix([[1, -1], [F(1, 2), 1]]))]:
        s = CliffordStructure(2, eta, xi)
        out.append((antipode_scattering(s), 2))
    return out


@pytest.mark.parametrize("sigma, n", _braid_maps())
def test_braid_equation_witness_is_a_differing_triple(sigma, n):
    ok, triple = check_braid_equation(sigma, n)
    lhs, rhs = braid_relation(sigma)
    count = sum(chain({x: 1}, *lhs) != chain({x: 1}, *rhs) for x in keys(n, 3))
    assert ok is (count == 0) and (triple is None) is (count == 0)
    if triple is not None:
        assert chain({triple: 1}, *lhs) != chain({triple: 1}, *rhs)


# -- braidedness ----------------------------------------------------------------------

def test_braided_verdict_true_when_both_forms_vanish_rank1():
    s = complex_structure(0, 0)
    report = check_braided(s, switch_map(1, graded=True))
    assert report.invertible and report.braid_equation_holds
    assert report.product_naturality_holds and report.coproduct_naturality_holds
    assert report.verdict_braided


def test_braided_verdict_false_at_minus_one():
    s = complex_structure(-1, 1)
    report = check_braided(s, closed_form_sigma(-1, 1))
    assert not report.verdict_braided
    assert not report.invertible  # identifies a failing flag


def test_braided_hexagons_split_by_vanishing_form():
    # with only the co-vector form zero the product hexagon holds and the
    # coproduct hexagon fails; dually with only the vector form zero
    s = complex_structure(2, 0)
    sigma = solved_sigma(s)
    rep = check_braided(s, sigma)
    assert rep.invertible and rep.braid_equation_holds
    assert rep.product_naturality_holds and not rep.coproduct_naturality_holds
    s = complex_structure(0, 3)
    rep = check_braided(s, solved_sigma(s))
    assert rep.invertible and rep.braid_equation_holds
    assert not rep.product_naturality_holds and rep.coproduct_naturality_holds


def test_braided_requires_compatible_scattering():
    s = complex_structure(-1, 1)
    with pytest.raises(ValueError):
        check_braided(s, pair_identity(1))


def test_unique_scattering_at_rank2_zero_forms_is_not_a_braid():
    # the compatibility square pins the scattering uniquely, and on vector
    # pairs it acts as (switch - 2 id), which exactly fails the braid relation
    s = CliffordStructure(2, Matrix.zeros(2, 2), Matrix.zeros(2, 2))
    sol = solve_sigma(s)
    assert sol.is_unique
    sigma = scattering_map(s, sol.particular)
    col = sigma.cols[(0b01, 0b10)]
    assert col[(0b01, 0b10)] == F(-2)
    assert col[(0b10, 0b01)] == F(1)
    ok, _ = check_braid_equation(sigma, 2)
    assert not ok


# -- twelve-parameter family ------------------------------------------------------------

def test_family_member_images():
    m = twelve_param_family_member(0, 0, 0, 1)
    col = m.cols[(1, 1)]
    assert col.get((0, 0), 0) == F(-1)
    assert col.get((1, 1), 0) == F(0)
    assert m.cols[(0, 0)] == {(0, 0): F(1)}


@pytest.mark.parametrize("pqr", [(0, 0, 0), (1, -1, 0), (F(1, 2), F(1, 3), F(-5, 6))])
@pytest.mark.parametrize("i2", [1, -1])
def test_family_members_solve_square(pqr, i2):
    p, q, r = pqr
    j2 = F(1) / F(i2)
    s = complex_structure(i2, j2)
    member = twelve_param_family_member(p, q, r, i2)
    assert not compatibility_defect(s, member)


def test_family_members_lie_in_solution_set():
    s = complex_structure(1, 1)
    sol = solve_sigma(s)
    basis_cols = Matrix(list(zip(*sol.nullspace_basis)))
    for pqr in [(0, 0, 0), (1, -1, 0), (F(1, 2), F(1, 3), F(-5, 6))]:
        member = twelve_param_family_member(*pqr, 1)
        flat = tuple(x for row in member.to_matrix(keys(1, 2)).rows for x in row)
        diff = [a - b for a, b in zip(flat, sol.particular)]
        assert solve_linear_system(basis_cols, diff).is_consistent


def test_family_rejects_bad_parameters():
    with pytest.raises(ValueError):
        twelve_param_family_member(1, 1, 1, 1)


# -- invertibility -----------------------------------------------------------------------

def test_closed_form_invertible_iff_parameter_not_unit():
    cases = {F(-1): False, F(-1, 2): True, F(0): True, F(1, 2): True, F(2): True}
    for a, expected in cases.items():
        sigma = closed_form_sigma(a, 1)
        assert is_invertible(sigma.to_matrix(keys(1, 2))) == expected


# -- module action -----------------------------------------------------------------------

def test_action_of_unit_is_identity():
    s = complex_structure(0, 0)
    sigma = switch_map(1, graded=True)
    t = Tensor2(1, {(0, 1): F(2), (1, 1): F(-1)})
    assert module_action(s, sigma, Multivector.blade(s.n, 0), t) == t


def test_action_of_primitive_distributes():
    s = complex_structure(0, 0)
    sigma = switch_map(1, graded=True)
    t = Tensor2.outer(Multivector.blade(s.n, 0), Multivector.blade(s.n, 0))
    e0 = Multivector.blade(1, 1)
    assert module_action(s, sigma, e0, t) == Tensor2(1, {(1, 0): F(1), (0, 1): F(1)})


def test_action_associativity_probe_recorded():
    # exact comparison of acting by a product versus acting twice, on the
    # rank-1 basis with zero forms and the graded switch: recorded outcome
    s = complex_structure(0, 0)
    sigma = switch_map(1, graded=True)
    table = {}
    basis = [Multivector.blade(s.n, 0), Multivector.blade(1, 1)]
    for xi, x in enumerate(basis):
        for yi, y in enumerate(basis):
            for ti, tprime in enumerate(basis):
                t = Tensor2.outer(tprime, Multivector.blade(s.n, 0))
                via_product = module_action(s, sigma, s.clifford_product(x, y), t)
                stepwise = module_action(s, sigma, x, module_action(s, sigma, y, t))
                table[(xi, yi, ti)] = via_product == stepwise
    assert set(table.values()) <= {True, False}
    assert table[(0, 0, 0)] is True  # acting by the unit twice is trivially associative


# -- report ------------------------------------------------------------------------------

def test_braiding_report_shape():
    # the sigma report (verify's section) and, at rank 1, verify's closed-form checks
    s = complex_structure(-1, 1)
    ant = hopf.solve_antipode(s)
    sol, sigma, flags = _scattering(s)
    report = _verify_sigma(s, sol, flags)
    assert report["consistent"] is True and report["solution_space_dim"] == 0
    assert check_min_polynomial(sigma, F(-1)) is True
    assert _rank1_checks(s, ant, sol, sigma)["min_poly_ok"] is True
    assert report["braided_flags"]["invertible"] is False
    assert report["braided_flags"]["braid_equation"] is False
    assert report["braided_flags"]["verdict_braided"] is False
    assert report["braided_iff_discrepancy"] is False
    # at a = 1 the family has no one member to check the quartic on
    s = complex_structure(1, 1)
    sol, sigma, flags = _scattering(s)
    assert _verify_sigma(s, sol, flags)["solution_space_dim"] == 12
    assert "min_poly_ok" not in _rank1_checks(s, hopf.solve_antipode(s), sol, sigma)


# -- the antipode's closed form against the linear-system solve ---------------------------

def linear_system_sigma(structure):
    """The oracle: the scattering solved from its 16^n-unknown linear system."""
    rows, rhs = scattering_system(structure)
    return solve_sparse_system(list(rows.values()), list(rhs.values()), 1 << (4 * structure.n))


def count_solves(monkeypatch):
    """The unknown counts of the linear systems solve_sigma solves from now on."""
    calls = []
    original = braiding.solve_sparse_system

    def counted(rows, rhs, ncols, *args, **kwargs):
        calls.append(ncols)
        return original(rows, rhs, ncols, *args, **kwargs)

    monkeypatch.setattr(braiding, "solve_sparse_system", counted)
    return calls


@st.composite
def instances(draw):
    """(rank, eta, xi, pairing) over every family of forms."""
    n = draw(st.sampled_from([1, 2]))
    eta_kind, xi_kind = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    return n, draw(forms(n, eta_kind)), draw(forms(n, xi_kind)), draw(st.sampled_from(PAIRINGS))


@settings(derandomize=True, database=None, max_examples=16, deadline=None)
@given(instances())
def test_solve_sigma_matches_the_linear_system_solve(instance):
    n, eta, xi, pairing = instance
    s = CliffordStructure(n, eta, xi, pairing=pairing)
    assert solve_sigma(s) == linear_system_sigma(s)


@st.composite
def no_antipode_forms(draw):
    """Rank-2 forms with det(I - eta xi) = 0: an invertible eta and
    xi = eta^-1 (I - N) for a singular N = u v^T, so I - eta xi = N."""
    eta = draw(forms(2, "generic").filter(lambda m: m[(0, 0)] * m[(1, 1)] != m[(0, 1)] * m[(1, 0)]))
    u, v = (draw(st.lists(rationals, min_size=2, max_size=2)) for _ in "uv")
    n = Matrix([[a * b for b in v] for a in u])
    return eta, invert(eta) @ Matrix([[(i == j) - n[(i, j)] for j in range(2)]
                                      for i in range(2)])


@pytest.mark.parametrize("pairing", PAIRINGS)
@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(forms2=no_antipode_forms())
def test_solve_sigma_matches_the_linear_system_solve_where_no_antipode_exists(pairing, forms2):
    s = CliffordStructure(2, *forms2, pairing=pairing)
    if pairing == "straight":  # there the locus is det(I - eta xi) = 0
        assert not hopf.solve_antipode(s).is_consistent
    assert solve_sigma(s) == linear_system_sigma(s)


# no antipode under either pairing: under "inner" the square has no
# solution, under "straight" a family of dimension 192
NO_ANTIPODE2 = (Matrix([[0, 1], [-1, 0]]), Matrix([[0, -3], [1, 1]]))


@pytest.mark.parametrize("pairing, dim", [("inner", None), ("straight", 192)])
def test_no_antipode_config_matches_the_linear_system_solve(pairing, dim):
    s = CliffordStructure(2, *NO_ANTIPODE2, pairing=pairing)
    assert not hopf.solve_antipode(s).is_consistent
    sol = solve_sigma(s)
    assert sol == linear_system_sigma(s)
    assert (sol.dimension if sol.is_consistent else None) == dim


GENERIC2 = (Matrix([[1, F(1, 2)], [-1, 2]]), Matrix([[1, -1], [F(1, 2), 1]]))


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("n, eta, xi", [(1, Matrix([[2]]), Matrix([[F(1, 3)]])),
                                        (2, *GENERIC2)])
def test_antipode_scattering_is_the_unique_solution(monkeypatch, pairing, n, eta, xi):
    # S(a1) (a2 b1)_(1) (x) (a2 b1)_(2) S(b2): S on the outer factors, the
    # middle pair multiplied and split again
    s = CliffordStructure(n, eta, xi, pairing=pairing)
    sigma = antipode_scattering(s)
    assert sigma is not None and not compatibility_defect(s, sigma)
    solves = count_solves(monkeypatch)
    sol = solve_sigma(s)
    # one solve in the 4^n entries of each factor, none in all 16^n
    assert solves == [1 << (2 * n)] * 2
    assert sol == linear_system_sigma(s) and sol.is_unique
    assert scattering_map(s, sol.particular).cols == sigma.cols


@pytest.mark.parametrize("n, form, pairing, dim", [(1, Matrix([[1]]), "inner", 12),
                                                   (2, Matrix.identity(2), "straight", 240)])
def test_no_antipode_solves_the_linear_system(monkeypatch, n, form, pairing, dim):
    s = CliffordStructure(n, form, form, pairing=pairing)
    assert not hopf.solve_antipode(s).is_consistent
    assert antipode_scattering(s) is None
    solves = count_solves(monkeypatch)
    sol = solve_sigma(s)
    assert solves == [1 << (2 * n)] * 2
    assert sol.dimension == dim


# the square's first factor (lambda) has a solution and its second (rho)
# none: under "inner" there is no scattering, under "straight" there is one
ONLY_LAMBDA2 = (Matrix([[-1, -1], [1, 0]]), Matrix([[0, 2], [-1, F(1, 2)]]))


def test_second_factor_without_a_solution_leaves_the_square_without_one(monkeypatch):
    s = CliffordStructure(2, *ONLY_LAMBDA2)
    solved = []
    original = braiding.solve_sparse_system
    monkeypatch.setattr(braiding, "solve_sparse_system",
                        lambda *args: solved.append(original(*args)) or solved[-1])
    sol = solve_sigma(s)
    assert [f.is_consistent for f in solved] == [True, False]
    monkeypatch.undo()
    assert not sol.is_consistent and sol == linear_system_sigma(s)
    assert not hopf.solve_antipode(s).is_consistent
    assert solve_sigma(CliffordStructure(2, *ONLY_LAMBDA2, pairing="straight")).is_consistent


def test_square_certificate_sees_a_wrong_second_factor_solution(monkeypatch):
    # one nonzero entry of rho's particular solution, raised by 1, no longer
    # solves the square, and the substitution into it says so
    solved = []
    original = braiding.solve_sparse_system

    def bumped(*args):
        sol = original(*args)
        solved.append(sol)
        if len(solved) == 2:
            p = list(sol.particular)
            i = next(i for i, v in enumerate(p) if v)
            p[i] += 1
            sol = AffineSolutionSet(tuple(p), sol.nullspace_basis)
        return sol

    monkeypatch.setattr(braiding, "solve_sparse_system", bumped)
    with pytest.raises(ArithmeticError, match="compatibility square"):
        solve_sigma(CliffordStructure(2, *GENERIC2))
    assert len(solved) == 2


def test_broken_coassociativity_solves_the_linear_system(monkeypatch):
    # the coefficient of e2 (x) e12 in coproduct(e1), 1/2, planted as 3/2,
    # breaks coassociativity alone: the antipode stays unique, but the closed
    # form no longer solves the square although the square has a unique
    # solution, which the two factors find without any bigebra law
    s = CliffordStructure(2, Matrix([[2, 0], [0, -1]]), Matrix([[F(-1, 3), 0], [0, F(1, 2)]]))
    s.maps.cop.cols[(0b01,)][(0b10, 0b11)] += 1
    assert not s.coassociative
    assert s.product_associative and s.unital and s.counital
    assert hopf.solve_antipode(s).is_unique
    assert antipode_scattering(s) is None
    solves = count_solves(monkeypatch)
    sol = solve_sigma(s)
    assert solves == [16, 16]
    assert sol == linear_system_sigma(s) and sol.is_unique


Z3 = Matrix.zeros(3, 3)
RANK3 = {
    "zero": (Z3, Z3),
    "xi0": (Matrix([[1, F(1, 2), 0], [-1, 2, 1], [0, F(1, 3), -1]]), Z3),
    "eta0": (Z3, Matrix([[1, -1, 0], [F(1, 2), 1, 2], [-2, 0, 1]])),
    "diagonal": (Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 2]]),
                 Matrix([[F(1, 2), 0, 0], [0, 1, 0], [0, 0, -1]])),
    "generic": (Matrix([[1, F(1, 2), 0], [-1, 2, 1], [0, F(1, 3), -1]]),
                Matrix([[1, -1, 0], [F(1, 2), 1, 2], [-2, 0, 1]])),
}


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("family", sorted(RANK3))
def test_rank3_scattering_is_unique_and_solves_the_square(monkeypatch, family, pairing):
    s = CliffordStructure(3, *RANK3[family], pairing=pairing)
    solves = count_solves(monkeypatch)
    sol = solve_sigma(s)
    assert solves == [64, 64]
    assert sol.is_unique
    assert compatibility_defect(s, scattering_map(s, sol.particular)) == {}


@pytest.mark.parametrize("pairing, dim", [("straight", 4032), ("inner", 3072)])
def test_rank3_identity_family_solves_the_square(monkeypatch, pairing, dim):
    # eta = xi = id has no antipode under either pairing; its family of
    # dimension 16^3 - rank lambda * rank rho comes from the two 64-entry
    # factors, where the 4096-unknown solve took minutes
    s = CliffordStructure(3, Matrix.identity(3), Matrix.identity(3), pairing=pairing)
    solves = count_solves(monkeypatch)
    sol = solve_sigma(s)
    assert solves == [64, 64]
    assert sol.dimension == dim
    for member in itertools.islice(sol.members(), 3):
        assert compatibility_defect(s, scattering_map(s, member)) == {}


# -- the square's certificate through its half map ---------------------------

def sparse_pair_maps(n: int):
    """Maps on rank-n blade pairs with a few nonzero entries."""
    pairs = keys(n, 2)

    def build(entries: dict) -> LinearMap:
        cols: dict = {x: {} for x in pairs}
        for (x, y), c in entries.items():
            cols[x][y] = c
        return LinearMap(2, cols)

    return st.dictionaries(st.tuples(st.sampled_from(pairs), st.sampled_from(pairs)),
                           rationals.filter(bool), max_size=2 * len(pairs)).map(build)


def routed_composite_defects(s, sigma) -> list:
    """The square's defects with its routed side run as one composite, the
    bracketing that square_defects replaces by its half map K."""
    pairs = keys(s.n, 2)
    return list(differences(pairs, _direct(s.maps), _routed(s.maps, sigma)))


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("n", [1, 2])
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(data=st.data())
def test_square_defects_match_the_routed_composite(n, pairing, data):
    # K = (id (x) m)(sigma (x) id)(id (x) coproduct) gives the same witnesses,
    # in the same order, on crossings that fail the square; none on sigma_0
    s = CliffordStructure(n, data.draw(forms(n, "generic")), data.draw(forms(n, "generic")),
                          pairing=pairing)
    sigma = data.draw(sparse_pair_maps(n))
    expected = routed_composite_defects(s, sigma)
    assume(expected)
    assert list(braiding.square_defects(s.maps, sigma, keys(n, 2))) == expected
    sol = solve_sigma(s)
    if sol.is_consistent:
        assert not list(braiding.square_defects(s.maps, scattering_map(s, sol.particular),
                                                keys(n, 2)))


def test_rank3_square_defects_match_the_routed_composite():
    s = CliffordStructure(3, *RANK3["xi0"], pairing="straight")
    sigma = switch_map(3)
    expected = routed_composite_defects(s, sigma)
    assert expected
    assert list(braiding.square_defects(s.maps, sigma, keys(3, 2))) == expected
    assert not list(braiding.square_defects(s.maps, solved_sigma(s), keys(3, 2)))
