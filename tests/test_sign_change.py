"""Metamorphic property of the instance report: the basis sign change
e_i -> s_i e_i turns an instance into an isomorphic one, whose forms are
s_i s_j B[i][j].  Every verdict of the report is unchanged, and the antipode
changes exactly by the predicted signs: entry (p, a) is multiplied by
s_p s_a, where s_C is the product of s_i over the indices i of blade C.  The
structure's tables change the same way: product entries (p, q) -> c by
s_p s_q s_c and coproduct entries c -> (a, b) by s_a s_b s_c."""

from fractions import Fraction as F
from math import prod

from hypothesis import example, given, settings, strategies as st

from xcliff.cli import build_instance_report
from xcliff.clifford import PAIRINGS, CliffordStructure
from xcliff.exterior import blade_indices
from xcliff.scalars import Matrix, parse_scalar

from random_forms import FAMILIES, forms


def flip_signs(form: Matrix, signs: list) -> Matrix:
    n = form.nrows
    return Matrix([[signs[i] * signs[j] * form[(i, j)] for j in range(n)] for i in range(n)])


def blade_sign(signs: list, bits: int) -> int:
    return prod(signs[i] for i in blade_indices(bits))


@st.composite
def instances(draw):
    """(rank, eta, xi, pairing, signs) over every form family."""
    n = draw(st.sampled_from([1, 2]))
    eta_kind, xi_kind = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    return (n, draw(forms(n, eta_kind)), draw(forms(n, xi_kind)), draw(st.sampled_from(PAIRINGS)),
            draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))


GENERIC = (Matrix([[1, F(1, 2)], [-1, 2]]), Matrix([[1, -1], [F(1, 2), 1]]))


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(instances())
@example((2, *GENERIC, "inner", [1, -1]))
def test_sign_change_keeps_every_verdict(instance):
    n, eta, xi, pairing, signs = instance
    report, flipped = (build_instance_report(CliffordStructure(n, e, x, pairing=pairing), 2)
                       for e, x in ((eta, xi), (flip_signs(eta, signs), flip_signs(xi, signs))))
    for key in ("hard_checks", "hard_pass"):
        assert flipped[key] == report[key]
    for key in ("exists", "unique"):
        assert flipped["antipode"][key] == report["antipode"][key]
    for key in ("solution_space_dim", "braided_flags"):
        assert flipped["sigma"][key] == report["sigma"][key]
    if report["antipode"]["exists"]:
        original = report["antipode"]["matrix"]
        assert [[parse_scalar(v) for v in row] for row in flipped["antipode"]["matrix"]] == [
            [blade_sign(signs, p) * blade_sign(signs, a) * parse_scalar(v)
             for a, v in enumerate(row)] for p, row in enumerate(original)]


@st.composite
def table_instances(draw):
    """(rank, eta, xi, signs) at ranks 1-3 over every form family."""
    n = draw(st.sampled_from([1, 2, 3]))
    eta_kind, xi_kind = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    return (n, draw(forms(n, eta_kind)), draw(forms(n, xi_kind)),
            draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))


@settings(derandomize=True, database=None, max_examples=24, deadline=None)
@given(table_instances())
@example((2, *GENERIC, [1, -1]))
def test_sign_change_multiplies_tables_by_predicted_signs(instance):
    """Both product tables change entry (p, q) -> c by s_p s_q s_c, and the
    coproduct changes entry c -> (a, b) by s_a s_b s_c, under each pairing."""
    n, eta, xi, signs = instance
    s = {c: blade_sign(signs, c) for c in range(1 << n)}
    for pairing in PAIRINGS:
        base, flipped = (CliffordStructure(n, e, x, pairing=pairing)
                         for e, x in ((eta, xi), (flip_signs(eta, signs), flip_signs(xi, signs))))
        # the dual product is the product with xi in the place of eta
        duals = tuple(CliffordStructure(n, t.xi, t.eta) for t in (base, flipped))
        for b, f in ((base, flipped), duals):
            assert f.product_table == {
                (p, q): {c: s[p] * s[q] * s[c] * v for c, v in prod.items()}
                for (p, q), prod in b.product_table.items()}
        for c, t in base.coproduct_table.items():
            assert flipped.coproduct_table[c].terms == {
                (a, b): s[a] * s[b] * s[c] * v for (a, b), v in t.terms.items()}
