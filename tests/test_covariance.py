"""GL(n)-covariance: for an invertible g, the exterior power G = Λg maps the
structure of (gᵀ·eta·g, g⁻¹·xi·g⁻ᵀ) onto that of (eta, xi).  G intertwines
the products and the coproducts, and Λ(g⁻ᵀ) those of the dual structures
(xi in the place of eta); the antipode and a unique scattering transport
exactly, and their existence and solution-space dimensions agree.  The
basis sign change of tests/test_sign_change.py is the case g = diag(±1)."""

from hypothesis import assume, example, given, settings, strategies as st

from xcliff.braiding import scattering_map, solve_sigma
from xcliff.clifford import PAIRINGS, CliffordStructure
from xcliff.hopf import antipode_map, solve_antipode
from xcliff.linmap import agree, keys
from xcliff.scalars import Matrix, invert

from oracles import exterior_power, is_invertible
from test_sign_change import FAMILIES, GENERIC, forms

RANK3 = (Matrix([[1, "1/2", 0], [-1, 2, 1], [0, "1/3", 1]]),
         Matrix([[1, 0, "-1/2"], [2, 1, 0], [0, -1, 1]]),
         Matrix([[1, 1, 0], [0, 2, "-1/3"], [1, 0, -1]]))


def transpose(a: Matrix) -> Matrix:
    return Matrix(zip(*a.rows))


def intertwines(lam, source: CliffordStructure, target: CliffordStructure) -> bool:
    """G . m_source = m_target . (G (x) G) and
    (G (x) G) . cop_source = cop_target . G, for G the map lam."""
    n = source.n
    return (agree(keys(n, 2), [source.maps.m.at(0), lam.at(0)],
                  [lam.at(0), lam.at(1), target.maps.m.at(0)])
            and agree(keys(n, 1), [source.maps.cop.at(0), lam.at(0), lam.at(1)],
                      [lam.at(0), target.maps.cop.at(0)]))


@st.composite
def instances(draw):
    """(rank, eta, xi, g) at ranks 1-2 over every form family, g invertible."""
    n = draw(st.sampled_from([1, 2]))
    eta_kind, xi_kind = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    g = draw(forms(n, "generic"))
    assume(is_invertible(g))
    return n, draw(forms(n, eta_kind)), draw(forms(n, xi_kind)), g


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(instances())
@example((2, *GENERIC, Matrix([[1, 2], [-1, "1/2"]])))
@example((3, *RANK3))
def test_exterior_power_carries_the_transported_structure(instance):
    n, eta, xi, g = instance
    g_inv = invert(g)
    eta_g, xi_g = transpose(g) @ eta @ g, g_inv @ xi @ transpose(g_inv)
    lam, lam_dual = exterior_power(g, n), exterior_power(transpose(g_inv), n)
    blade, pair = keys(n, 1), keys(n, 2)
    for pairing in PAIRINGS:
        base = CliffordStructure(n, eta, xi, pairing)
        moved = CliffordStructure(n, eta_g, xi_g, pairing)
        assert intertwines(lam, moved, base)
        assert intertwines(lam_dual, CliffordStructure(n, xi_g, eta_g, pairing),
                           CliffordStructure(n, xi, eta, pairing))
        anti, anti_g = solve_antipode(base), solve_antipode(moved)
        assert (anti_g.is_consistent, anti_g.dimension) == (anti.is_consistent, anti.dimension)
        if anti.is_unique:
            s, s_g = antipode_map(base, anti.particular), antipode_map(moved, anti_g.particular)
            assert agree(blade, [s_g.at(0), lam.at(0)], [lam.at(0), s.at(0)])
        sol, sol_g = solve_sigma(base), solve_sigma(moved)
        assert (sol_g.is_consistent, sol_g.dimension) == (sol.is_consistent, sol.dimension)
        if sol.is_unique:
            sigma = scattering_map(base, sol.particular)
            sigma_g = scattering_map(moved, sol_g.particular)
            assert agree(pair, [sigma_g.at(0), lam.at(0), lam.at(1)],
                         [lam.at(0), lam.at(1), sigma.at(0)])
