"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 03 pins the zero-xi grade-2 antipode to its hand-derived
closed form.  Criterion 08 pins every braided flag: {invertible and braid
relation} holds iff a form vanishes, the product hexagon iff xi = 0 and the
coproduct hexagon iff eta = 0; its rank-2 rows run under both tensor-square
pairings, and the default inner pairing's rank-2 braid failure is asserted.
The derivations live in the test docstrings.
"""

import itertools
import json
import random
from fractions import Fraction as F
from math import comb

from xcliff import braiding, cli, hopf
from xcliff.cli import main as cli_main
from xcliff.clifford import (CliffordStructure, check_counit_is_algebra_map,
                             check_unit_is_cogebra_map, xi_gram_determinant)
from xcliff.exterior import Multivector, blade_indices, blades, det_pairing, grade
from xcliff.linmap import keys
from xcliff.scalars import Matrix
from xcliff.tensor_shuffle import (GradedElement, concat_product, couniversal_lift,
                                   deconcat_coproduct, exterior_image_dimensions,
                                   grade1_projection, letter_inclusion, letter_switch,
                                   pair_word_tensor, shuffle_product,
                                   unshuffle_coproduct, universal_lift, word_pairing)

import oracles
from oracles import (basis_blades_of_grade, dkp_coproduct, is_invertible, pair_tensor2,
                     solve_linear_system)
from random_forms import random_form, random_nonzero_rational


def _report(num: int, ok: bool, desc: str):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")


def _conjecture_record(s):
    """The antipode solved here and the conjecture record from it."""
    sol = hopf.solve_antipode(s)
    return sol, cli.conjecture_record(s, sol)


def complex_structure(i2, j2):
    return CliffordStructure(1, Matrix([[F(i2)]]), Matrix([[F(j2)]]))


def sample_parameter_pairs(seed: int, count: int, exclude_unit=True):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        i2 = random_nonzero_rational(rng)
        j2 = random_nonzero_rational(rng)
        if exclude_unit and i2 * j2 == 1:
            continue
        pairs.append((i2, j2))
    return pairs


def test_criterion_01_antipode_closed_form():
    ok = True
    for i2, j2 in sample_parameter_pairs(101, 20):
        a = i2 * j2
        s = complex_structure(i2, j2)
        sol = hopf.solve_antipode(s)
        expected = hopf.complex_antipode_closed_form(a)
        if not (sol.is_unique and hopf.antipode_map(s, sol.particular) == expected):
            ok = False
    _report(1, ok, "rank-1 antipode solver equals the closed form at 20 sampled parameters")
    assert ok


def test_criterion_02_antipode_nonexistence():
    ok = True
    for i2, j2 in [(1, 1), (-1, -1)]:
        if hopf.solve_antipode(complex_structure(i2, j2)).is_consistent:
            ok = False
    _report(2, ok, "no antipode at unit composite form (two realizations)")
    assert ok


def test_criterion_03_zero_xi_antipode_grade2():
    """With the co-vector form zero the antipode exists, is unique, and on a
    2-blade e_ij is -3*e_ij - (eta_ij - eta_ji)*1.

    Under the default inner pairing the coproduct splits a 2-blade as
    1(x)vw + vw(x)1 - v(x)w + w(x)v (pinned by criterion 9's closed form),
    the counit axiom forces S(1)=1 and primitivity forces S(v)=-v, so the
    antipode axiom on a 2-blade reads S(vw) + 3vw + (eta(v,w)-eta(w,v)) = 0.
    The expected map is built from eta alone, never from the solver.  (Under
    the straight pairing the same derivation gives +vw + (eta(v,w)-eta(w,v));
    no pairing makes the grade-2 antipode the zero map.)
    """
    rng = random.Random(103)
    exists_ok = True
    grade2_ok = True
    for n in (2, 3):
        for _ in range(5):
            eta = random_form(n, rng)
            s = CliffordStructure(n, eta, Matrix.zeros(n, n))
            sol = hopf.solve_antipode(s)
            if not sol.is_unique:
                exists_ok = False
                continue
            m = hopf.antipode_map(s, sol.particular)
            for b in basis_blades_of_grade(n, 2):
                i, j = blade_indices(b)
                expected = Multivector(n, {b: F(-3), 0: -(eta[(i, j)] - eta[(j, i)])})
                if oracles.apply_endo(m, Multivector.blade(n, b)) != expected:
                    grade2_ok = False
    ok = exists_ok and grade2_ok
    _report(3, ok, "zero co-vector form: antipode exists and is unique"
                   f" [{'ok' if exists_ok else 'FAIL'}] and on 2-blades equals"
                   f" -3*id - (eta_ij - eta_ji)*1 [{'ok' if grade2_ok else 'FAIL'}]")
    assert exists_ok
    assert grade2_ok


def test_criterion_04_sigma_unique_closed_form():
    ok = True
    for i2, j2 in sample_parameter_pairs(104, 10):
        s = complex_structure(i2, j2)
        sol = braiding.solve_sigma(s)
        if not (sol.is_unique and braiding.scattering_map(s, sol.particular)
                == braiding.closed_form_sigma(i2, j2)):
            ok = False
    _report(4, ok, "scattering solver unique and equal to the closed form at 10 samples")
    assert ok


def test_criterion_05_twelve_parameter_family():
    ok = True
    for i2, j2 in [(1, 1), (-1, -1)]:
        sol = braiding.solve_sigma(complex_structure(i2, j2))
        if not (sol.is_consistent and sol.dimension == 12):
            ok = False
    sol = braiding.solve_sigma(complex_structure(1, 1))
    basis_cols = Matrix(list(zip(*sol.nullspace_basis)))
    for pqr in [(0, 0, 0), (1, -1, 0), (F(1, 2), F(1, 3), F(-5, 6))]:
        member = oracles.twelve_param_family_member(*pqr, 1)
        flat = tuple(x for row in member.to_matrix(keys(1, 2)).rows for x in row)
        diff = [a - b for a, b in zip(flat, sol.particular)]
        if not solve_linear_system(basis_cols, diff).is_consistent:
            ok = False
    _report(5, ok, "solution space at unit composite is exactly 12-dimensional "
                   "and contains the displayed family")
    assert ok


def test_criterion_06_minimum_polynomial_and_invertibility():
    ok = True
    for i2, j2 in sample_parameter_pairs(106, 10):
        if not braiding.check_min_polynomial(braiding.closed_form_sigma(i2, j2), i2 * j2):
            ok = False
    for a, expected in [(F(-1), False), (F(-1, 2), True), (F(0), True),
                        (F(1, 2), True), (F(2), True)]:
        if is_invertible(braiding.closed_form_sigma(a, 1).to_matrix(keys(1, 2))) != expected:
            ok = False
    _report(6, ok, "displayed quartic annihilates the scattering; invertible iff "
                   "the parameter avoids +/-1")
    assert ok


def test_criterion_07_braid_equation_at_zero_parameter():
    ok = True
    for i2, j2 in [(0, 0), (1, 0), (0, 1)]:
        good, bad = braiding.check_braid_equation(braiding.closed_form_sigma(i2, j2), 1)
        if not good or bad:
            ok = False
    _report(7, ok, "closed-form scattering satisfies the braid relation at zero parameter")
    assert ok


def _flags(rep):
    return (rep.invertible, rep.braid_equation_holds,
            rep.product_naturality_holds, rep.coproduct_naturality_holds)


def test_criterion_08_braided_theorem_evidence():
    """The stated iff, read as {invertible and braid relation}, with every
    flag of the braided report pinned on every instance.

    * {invertible and braid relation} holds iff xi = 0 or eta = 0, checked in
      both directions: on the vanishing-form instances at ranks 1 and 2, and
      on ten rank-1 instances with both forms nonzero, where the braid
      relation fails (it holds iff the parameter product is 0) and
      invertibility fails exactly at parameter product -1 (criterion 06).
    * The two naturality hexagons split by which form vanishes: the product
      hexagon holds iff xi = 0, the coproduct hexagon iff eta = 0 (at rank 1
      with xi = 0, eta != 0 the two sides of the coproduct hexagon on e(x)e
      differ by eta*1(x)1(x)1).  So the four-flag conjunction verdict_braided
      holds iff both forms vanish; nothing in the paper's abstract asks for
      both hexagons.
    * The pattern depends on the tensor-square pairing at rank 2 (the two
      pairings give the same tables at rank 1).  Under the straight pairing
      the rank-2 flags follow the rank-1 pattern, and with both forms zero
      the unique scattering is the graded switch of the exterior algebra.
      Under the default inner pairing the unique rank-2 scattering acts as
      switch - 2*id on vector pairs and fails the braid relation (the two
      braid words differ by 4*(s1 - s2)) and both hexagons, on all three
      vanishing-form instances.
    """
    rng = random.Random(108)
    rows = []  # (n, which, pairing, report, expected flags)
    ok = True
    graded_switch_ok = True
    for n in (1, 2):
        pairings = ("inner",) if n == 1 else ("straight", "inner")
        for which in ("xi", "eta", "both"):
            eta_zero = which in ("eta", "both")
            xi_zero = which in ("xi", "both")
            eta = Matrix.zeros(n, n) if eta_zero else random_form(n, rng, nonzero=True)
            xi = Matrix.zeros(n, n) if xi_zero else random_form(n, rng, nonzero=True)
            for pairing in pairings:
                s = CliffordStructure(n, eta, xi, pairing=pairing)
                sol = braiding.solve_sigma(s)
                if not sol.is_unique:
                    ok = False
                    continue
                sigma = braiding.scattering_map(s, sol.particular)
                if n == 2 and pairing == "inner":
                    expected = (True, False, False, False)
                else:
                    expected = (True, True, xi_zero, eta_zero)
                    if which == "both" and sigma != oracles.switch_map(n):
                        graded_switch_ok = False
                report = braiding.check_braided(s, sigma)
                rows.append((n, which, pairing, report, expected))
                if _flags(report) != expected:
                    ok = False
    # both-nonzero direction, rank 1
    recorded = []
    for i2, j2 in sample_parameter_pairs(109, 10):
        s = complex_structure(i2, j2)
        sol = braiding.solve_sigma(s)
        report = braiding.check_braided(s, braiding.scattering_map(s, sol.particular))
        recorded.append((i2 * j2, report))
        if not sol.is_unique or _flags(report) != (i2 * j2 != -1, False, False, False):
            ok = False
    ok = ok and graded_switch_ok
    _report(8, ok, "invertible+braid iff a form vanishes; product hexagon iff xi = 0, "
                   "coproduct hexagon iff eta = 0 (ranks 1, 2 straight); "
                   "inner rank 2 not a braid")
    for n, which, pairing, rep, expected in rows:
        print(f"    rank {n}, zero {which}, {pairing}: invertible={rep.invertible} "
              f"braid={rep.braid_equation_holds} product-hex={rep.product_naturality_holds} "
              f"coproduct-hex={rep.coproduct_naturality_holds} "
              f"verdict={rep.verdict_braided} "
              f"[{'ok' if _flags(rep) == expected else 'FAIL'}]")
    print(f"    both forms nonzero, rank 1: verdicts "
          f"{[rep.verdict_braided for _, rep in recorded]}")
    two_flag_zero = [rep.invertible and rep.braid_equation_holds
                     for n, _, pairing, rep, _ in rows if n == 1 or pairing == "straight"]
    two_flag_inner2 = [rep.invertible and rep.braid_equation_holds
                       for n, _, pairing, rep, _ in rows if n == 2 and pairing == "inner"]
    two_flag_nonzero = [rep.invertible and rep.braid_equation_holds for _, rep in recorded]
    print(f"    two-flag reading (invertible and braid): true on "
          f"{two_flag_zero.count(True)}/{len(two_flag_zero)} vanishing-form instances "
          f"(rank 1, rank 2 straight), false on "
          f"{two_flag_nonzero.count(False)}/{len(two_flag_nonzero)} both-nonzero "
          f"instances as the iff predicts; rank 2 inner: false on "
          f"{two_flag_inner2.count(False)}/{len(two_flag_inner2)}")
    assert two_flag_zero == [True] * 6
    assert two_flag_nonzero == [False] * 10
    assert two_flag_inner2 == [False] * 3
    assert graded_switch_ok, "straight rank-2 zero-form scattering is not the graded switch"
    assert ok, "braided flag pattern differs from the expected one (see the rows above)"


def test_criterion_09_duality_and_coproduct():
    ok = True
    rng = random.Random(110)
    for n in (1, 2, 3):
        for _ in range(10):
            xi = random_form(n, rng)
            s = CliffordStructure(n, Matrix.zeros(n, n), xi)
            dual = CliffordStructure(n, xi, Matrix.zeros(n, n)).product_table
            for p in blades(n):
                for q in blades(n):
                    prod = Multivector(n, dual[(p, q)])
                    for x in blades(n):
                        if det_pairing(prod, Multivector.blade(n, x)) != pair_tensor2(
                                Multivector.blade(n, p), Multivector.blade(n, q),
                                s.coproduct_table[x]):
                            ok = False
            cop1 = s.coproduct_table[0]
            for k in range(n + 1):
                sign = -1 if (k // 2) % 2 else 1
                for a in basis_blades_of_grade(n, k):
                    for b in basis_blades_of_grade(n, k):
                        if cop1.terms.get((a, b), F(0)) != sign * xi_gram_determinant(xi, b, a):
                            ok = False
    for n in (1, 2, 3, 4):
        s = CliffordStructure(n, random_form(n, rng), Matrix.zeros(n, n))
        for c in blades(n):
            x = Multivector.blade(n, c)
            if s.coproduct(x) != dkp_coproduct(x):
                ok = False
    _report(9, ok, "product/coproduct duality, unshuffle closed form, and the "
                   "alternating Gram sign pattern")
    assert ok


def test_criterion_10_bigebra_laws_and_morphism_failures():
    ok = True
    rng = random.Random(111)
    for n in (1, 2, 3):
        s = CliffordStructure(n, random_form(n, rng), random_form(n, rng))
        for a in blades(n):
            x = Multivector.blade(n, a)
            for b in blades(n):
                xy = s.clifford_product(x, Multivector.blade(n, b))
                for c in blades(n):
                    z = Multivector.blade(n, c)
                    if s.clifford_product(xy, z) != s.clifford_product(
                            x, s.clifford_product(Multivector.blade(n, b), z)):
                        ok = False
        for c in blades(n):
            lhs, rhs = {}, {}
            left, right = {}, {}
            for (a, b), v in s.coproduct_table[c].terms.items():
                if a == 0:
                    left[b] = left.get(b, F(0)) + v
                if b == 0:
                    right[a] = right.get(a, F(0)) + v
                for (a1, a2), u in s.coproduct_table[a].terms.items():
                    k = (a1, a2, b)
                    lhs[k] = lhs.get(k, F(0)) + v * u
                for (b1, b2), u in s.coproduct_table[b].terms.items():
                    k = (a, b1, b2)
                    rhs[k] = rhs.get(k, F(0)) + v * u
            if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                ok = False
            if ({k: v for k, v in left.items() if v} != {c: F(1)}
                    or {k: v for k, v in right.items() if v} != {c: F(1)}):
                ok = False
    for _ in range(10):
        n = rng.choice([1, 2])
        s = CliffordStructure(n, random_form(n, rng, nonzero=True), Matrix.zeros(n, n))
        if check_counit_is_algebra_map(s)[0]:
            ok = False
        s = CliffordStructure(n, Matrix.zeros(n, n), random_form(n, rng, nonzero=True))
        if check_unit_is_cogebra_map(s)[0]:
            ok = False
    for n in (1, 2, 3):
        z = CliffordStructure(n, Matrix.zeros(n, n), Matrix.zeros(n, n))
        if not (check_counit_is_algebra_map(z)[0] and check_unit_is_cogebra_map(z)[0]):
            ok = False
    _report(10, ok, "associativity, coassociativity, counit law; morphism failures "
                    "exactly when the forms are nonzero")
    assert ok


def test_criterion_11_shuffle_duality_and_lifts():
    ok = True
    n, bound = 2, 4
    words = [t for k in range(bound + 1) for t in itertools.product(range(n), repeat=k)]
    for a in words:
        for b in words:
            if len(a) + len(b) > bound:
                continue
            ga = GradedElement(n, bound, {a: 1})
            gb = GradedElement(n, bound, {b: 1})
            conc = concat_product(ga, gb)
            shuf = shuffle_product(ga, gb)
            for x in words:
                gx = GradedElement(n, bound, {x: 1})
                if word_pairing(conc, gx) != pair_word_tensor(ga, gb, deconcat_coproduct(gx)):
                    ok = False
                if word_pairing(shuf, gx) != pair_word_tensor(ga, gb, unshuffle_coproduct(gx)):
                    ok = False
    rng = random.Random(112)
    for nn in (1, 2):
        s = CliffordStructure(nn, random_form(nn, rng), random_form(nn, rng))
        lift = universal_lift(letter_inclusion(s), s)
        wss = [t for k in range(bound + 1) for t in itertools.product(range(nn), repeat=k)]
        for a in wss:
            for b in wss:
                if len(a) + len(b) > bound:
                    continue
                ga = GradedElement(nn, bound, {a: 1})
                gb = GradedElement(nn, bound, {b: 1})
                if lift(concat_product(ga, gb)) != s.clifford_product(lift(ga), lift(gb)):
                    ok = False
        colift = couniversal_lift(grade1_projection(s), s, bound)
        for c in blades(nn):
            x = Multivector.blade(nn, c)
            rhs = {}
            for (a, b), coeff in s.coproduct(x).terms.items():
                la = colift(Multivector.blade(nn, a))
                lb = colift(Multivector.blade(nn, b))
                for u, cu in la.terms.items():
                    for v, cv in lb.terms.items():
                        if len(u) + len(v) > bound:
                            continue
                        key = (u, v)
                        rhs[key] = rhs.get(key, F(0)) + coeff * cu * cv
            rhs = {k: v for k, v in rhs.items() if v}
            lhs = {k: v for k, v in deconcat_coproduct(colift(x)).items()
                   if len(k[0]) + len(k[1]) <= bound and v}
            if lhs != rhs:
                ok = False
    _report(11, ok, "word pairing dualities and both lift morphism laws, exhaustive")
    assert ok


def test_criterion_12_symmetrizer_ranks():
    ok = True
    for n in (1, 2, 3, 4):
        ranks = exterior_image_dimensions(letter_switch(n, -1), n, 4)
        if ranks != [comb(n, k) for k in range(5)]:
            ok = False
    _report(12, ok, "sign-switch symmetrizer ranks are binomial through rank 4, length 4")
    assert ok


def test_criterion_13_conjecture_evidence_recorded(tmp_path):
    # recorded-only: emitted in the sweep aggregate; the only assertion is
    # byte-identical reruns (zero nondeterminism)
    # 36 sampled + 4 pinned rank-1 rows plus 10 rank-2 records: 50 instances
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert cli_main(["sweep", "--samples", "36", "--seed", "113",
                     "--a-values=1,-1,0,1/2", "--out", str(out1)]) == 0
    assert cli_main(["sweep", "--samples", "36", "--seed", "113",
                     "--a-values=1,-1,0,1/2", "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    aggregate = json.loads(out1.read_text())["aggregate"]

    def rank2_records(seed):
        rng = random.Random(seed)
        recs = []
        for _ in range(10):
            if rng.random() < 0.3:
                eta = random_form(2, rng, nonzero=True)
                if is_invertible(eta):
                    from xcliff.scalars import invert
                    xi = invert(eta)
                else:
                    xi = random_form(2, rng)
            else:
                eta, xi = random_form(2, rng), random_form(2, rng)
            s = CliffordStructure(2, eta, xi)
            sol, rec = _conjecture_record(s)
            recs.append((rec.xi_eta_is_identity, sol.is_consistent,
                         rec.conjecture_consistent))
        return recs

    recs1, recs2 = rank2_records(114), rank2_records(114)
    identical = identical and recs1 == recs2
    consistent = sum(1 for _, _, c in recs1 if c)
    _report(13, identical, "conjecture and braid-relation evidence recorded "
                           "deterministically (never gating)")
    print(f"    rank-1 sweep: {aggregate['rows']} rows, conjecture consistent on "
          f"{aggregate['conjecture_consistent']}, braid relation true/false "
          f"{aggregate['braid_eq_true']}/{aggregate['braid_eq_false']}")
    print(f"    rank-2 instances: conjecture consistent on {consistent}/10")
    assert identical


def test_criterion_15_scattering_existence_per_pairing():
    """Where the compatibility square has a solution, per tensor-square
    pairing, at rank 2 (ROADMAP item 17).  Off the no-antipode loci both
    pairings give an antipode and a unique scattering.  On them "straight"
    still gives a scattering family, of dimension 192, and "inner" none.
    The first config is on both loci (c0 = 0 under either pairing: eta is
    antisymmetric and det(I - eta xi) = 0); the second is a point of the
    straight locus det(I - eta xi) = 0, with det(eta_s) = 0 as well; the
    third has c0 = -4 under both."""
    no_antipode = {"straight": (False, 192), "inner": (False, None)}
    configs = [
        ([[0, 1], [-1, 0]], [[0, -3], [1, 1]], no_antipode),
        ([[1, 0], [0, 0]], [[1, 0], [0, 1]], no_antipode),
        ([[1, 2], [0, 1]], [[1, 0], [1, 1]], {"straight": (True, 0), "inner": (True, 0)}),
    ]
    ok = True
    for eta, xi, expected in configs:
        for pairing, (antipode, dimension) in expected.items():
            s = CliffordStructure(2, Matrix(eta), Matrix(xi), pairing=pairing)
            sol = braiding.solve_sigma(s)
            found = (hopf.solve_antipode(s).is_consistent,
                     sol.dimension if sol.is_consistent else None)
            ok = ok and found == (antipode, dimension)
    _report(15, ok, "scattering exists on the no-antipode locus under straight only; "
                    "unique off it under both pairings")
    assert ok
