import itertools
import random
from fractions import Fraction as F
from math import comb, prod

import pytest

from xcliff.clifford import CliffordStructure
from xcliff.exterior import Multivector, blades
from xcliff.sampling import random_form
from xcliff.scalars import Matrix
from xcliff.tensor_shuffle import (GradedElement, WordOperator, braid_lift,
                                   check_letter_braid_equation, concat_product,
                                   couniversal_lift, cross_words, deconcat_coproduct,
                                   exterior_image_dimensions, grade1_projection,
                                   letter_inclusion, letter_switch, pair_word_tensor,
                                   quantum_symmetrizer, shuffle_product,
                                   unshuffle_coproduct, universal_lift, word_pairing,
                                   zero_braid_bigebra_check, zero_letter_crossing,
                                   _letter_sigma_columns)

N, L = 2, 4


def w(*letters):
    return GradedElement.word(N, L, letters)


def all_words(n=N, bound=L):
    return [t for k in range(bound + 1) for t in itertools.product(range(n), repeat=k)]


# -- products and coproducts -------------------------------------------------

def test_concat_examples():
    assert concat_product(w(0), w(1)) == w(0, 1)
    assert concat_product(GradedElement.empty_word(N, L), w(0, 1, 1)) == w(0, 1, 1)
    assert concat_product(w(0) + w(1), w(0)) == w(0, 0) + w(1, 0)


def test_concat_truncation_flagged():
    x = concat_product(w(0, 1, 0), w(1, 1))
    assert not x.terms
    assert x.truncated


def test_deconcat_examples():
    assert deconcat_coproduct(w(0)) == {((), (0,)): F(1), ((0,), ()): F(1)}
    assert deconcat_coproduct(w(0, 1)) == {((), (0, 1)): F(1), ((0,), (1,)): F(1),
                                           ((0, 1), ()): F(1)}
    assert deconcat_coproduct(GradedElement.empty_word(N, L)) == {((), ()): F(1)}


def test_shuffle_examples():
    assert shuffle_product(w(0), w(1)) == w(0, 1) + w(1, 0)
    assert shuffle_product(w(0), w(0)) == 2 * w(0, 0)


def test_unshuffle_example():
    assert unshuffle_coproduct(w(0, 1)) == {
        ((), (0, 1)): F(1), ((0,), (1,)): F(1), ((1,), (0,)): F(1), ((0, 1), ()): F(1)}


def test_word_pairing_examples():
    assert word_pairing(w(0, 1), w(0, 1)) == 1
    assert word_pairing(w(0, 1), w(1, 0)) == 0


def test_concat_associative_unital():
    unit = GradedElement.empty_word(N, L)
    for a in all_words():
        ga = GradedElement(N, L, {a: 1})
        assert concat_product(unit, ga) == ga
        assert concat_product(ga, unit) == ga
    for a in all_words(bound=2):
        for b in all_words(bound=1):
            for c in all_words(bound=1):
                ga, gb, gc = (GradedElement(N, L, {t: 1}) for t in (a, b, c))
                assert (concat_product(concat_product(ga, gb), gc)
                        == concat_product(ga, concat_product(gb, gc)))


def test_shuffle_associative_commutative():
    for a in all_words(bound=2):
        for b in all_words(bound=1):
            ga, gb = GradedElement(N, L, {a: 1}), GradedElement(N, L, {b: 1})
            assert shuffle_product(ga, gb) == shuffle_product(gb, ga)
            for c in all_words(bound=1):
                gc = GradedElement(N, L, {c: 1})
                assert (shuffle_product(shuffle_product(ga, gb), gc)
                        == shuffle_product(ga, shuffle_product(gb, gc)))


def _coassociative(split_fn):
    for x in all_words():
        gx = GradedElement(N, L, {x: 1})
        lhs, rhs = {}, {}
        for (u, v), c in split_fn(gx).items():
            for (u1, u2), d in split_fn(GradedElement(N, L, {u: 1})).items():
                k = (u1, u2, v)
                lhs[k] = lhs.get(k, F(0)) + c * d
            for (v1, v2), d in split_fn(GradedElement(N, L, {v: 1})).items():
                k = (u, v1, v2)
                rhs[k] = rhs.get(k, F(0)) + c * d
        if lhs != rhs:
            return False
    return True


def test_coproducts_coassociative_counital():
    assert _coassociative(deconcat_coproduct)
    assert _coassociative(unshuffle_coproduct)
    for x in all_words():
        gx = GradedElement(N, L, {x: 1})
        for split_fn in (deconcat_coproduct, unshuffle_coproduct):
            left = {v: c for (u, v), c in split_fn(gx).items() if u == ()}
            right = {u: c for (u, v), c in split_fn(gx).items() if v == ()}
            assert left == {x: F(1)} and right == {x: F(1)}


def test_pairing_dualities_exhaustive():
    # concatenation pairs with deconcatenation, shuffle with unshuffle
    words = all_words()
    for a in words:
        for b in words:
            if len(a) + len(b) > L:
                continue
            ga, gb = GradedElement(N, L, {a: 1}), GradedElement(N, L, {b: 1})
            conc = concat_product(ga, gb)
            shuf = shuffle_product(ga, gb)
            for x in words:
                gx = GradedElement(N, L, {x: 1})
                assert word_pairing(conc, gx) == pair_word_tensor(ga, gb, deconcat_coproduct(gx))
                assert word_pairing(shuf, gx) == pair_word_tensor(ga, gb, unshuffle_coproduct(gx))


# -- lifts ---------------------------------------------------------------------

def test_universal_lift_examples():
    s = CliffordStructure(2, Matrix([[-1, 0], [0, 1]]), Matrix.zeros(2, 2))
    lift = universal_lift(letter_inclusion(s), s)
    assert lift(w(0, 0)) == Multivector.scalar(2, -1)
    assert lift(GradedElement.empty_word(N, L)) == s.unit(1)
    s0 = CliffordStructure(2, Matrix.zeros(2, 2), Matrix.zeros(2, 2))
    lift0 = universal_lift(letter_inclusion(s0), s0)
    assert lift0(w(0, 1)) == Multivector.blade(2, 0b11)


def test_universal_lift_multiplicative():
    rng = random.Random(71)
    for _ in range(4):
        s = CliffordStructure(2, random_form(2, rng), Matrix.zeros(2, 2))
        lift = universal_lift(letter_inclusion(s), s)
        for a in all_words():
            for b in all_words():
                if len(a) + len(b) > L:
                    continue
                ga, gb = GradedElement(N, L, {a: 1}), GradedElement(N, L, {b: 1})
                assert lift(concat_product(ga, gb)) == s.clifford_product(lift(ga), lift(gb))


def test_couniversal_lift_examples():
    s = CliffordStructure(2, Matrix.zeros(2, 2), Matrix.zeros(2, 2))
    colift = couniversal_lift(grade1_projection(s), s, L)
    assert colift(Multivector.basis_vector(2, 0)) == w(0)
    assert colift(s.unit(1)) == GradedElement.empty_word(N, L)
    # the bivector image carries the coproduct's antisymmetry; the sign
    # convention ties to the tensor-factor ordering and is pinned here
    assert colift(Multivector.blade(2, 0b11)) == w(1, 0) - w(0, 1)


def test_couniversal_lift_comultiplicative_up_to_bound():
    rng = random.Random(73)
    for n in (1, 2):
        for _ in range(3):
            s = CliffordStructure(n, random_form(n, rng), random_form(n, rng))
            colift = couniversal_lift(grade1_projection(s), s, L)
            for c in blades(n):
                x = Multivector.blade(n, c)
                rhs = {}
                for (a, b), coeff in s.coproduct(x).terms.items():
                    la = colift(Multivector.blade(n, a))
                    lb = colift(Multivector.blade(n, b))
                    for u, cu in la.terms.items():
                        for v, cv in lb.terms.items():
                            if len(u) + len(v) > L:
                                continue
                            k = (u, v)
                            rhs[k] = rhs.get(k, F(0)) + coeff * cu * cv
                rhs = {k: v for k, v in rhs.items() if v}
                lhs = {k: v for k, v in deconcat_coproduct(colift(x)).items()
                       if len(k[0]) + len(k[1]) <= L and v}
                assert lhs == rhs


def test_couniversal_truncation_flag():
    # a nonzero co-vector form feeds ever longer words out of the unit
    s = CliffordStructure(1, Matrix([[2]]), Matrix([[F(1, 2)]]))
    colift = couniversal_lift(grade1_projection(s), s, 4)
    out = colift(s.unit(1))
    assert out.terms == {(): F(1), (0, 0): F(1, 2), (0, 0, 0, 0): F(1, 4)}
    assert out.truncated
    s0 = CliffordStructure(1, Matrix([[2]]), Matrix.zeros(1, 1))
    assert not couniversal_lift(grade1_projection(s0), s0, 4)(s0.unit(1)).truncated


def _naive_couniversal_lift(letter_map, s, bound, x):
    """The co-universal lift with every split-off blade kept: iterated
    coproducts as full blade tuples, each layer read through the letter map."""
    n = s.n
    letters = [[(mu, letter_map[(mu, b)]) for mu in range(n) if letter_map[(mu, b)]]
               for b in blades(n)]
    terms = {(): x.scalar_part()} if x.scalar_part() else {}
    layer = {(b,): c for b, c in x.terms.items()}
    for k in range(1, bound + 3):
        contrib = {}
        for tup, c in layer.items():
            for combo in itertools.product(*(letters[b] for b in tup)):
                word = tuple(mu for mu, _ in combo)
                contrib[word] = contrib.get(word, F(0)) + c * prod(v for _, v in combo)
        contrib = {word: v for word, v in contrib.items() if v}
        if k > bound and contrib:
            return GradedElement(n, bound, terms, True)
        if k <= bound:
            for word, v in contrib.items():
                terms[word] = terms.get(word, F(0)) + v
        nxt = {}
        for tup, c in layer.items():
            for (a, b), v in s.coproduct_table[tup[0]].terms.items():
                key = (a, b) + tup[1:]
                nxt[key] = nxt.get(key, F(0)) + c * v
        layer = {key: v for key, v in nxt.items() if v}
    return GradedElement(n, bound, terms, False)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["zero", "diagonal", "generic"])
def test_couniversal_lift_matches_naive_expansion(n, kind):
    rng = random.Random(f"colift-{n}-{kind}")

    def form():
        if kind == "zero":
            return Matrix.zeros(n, n)
        m = random_form(n, rng, nonzero=True)
        if kind == "diagonal":
            m = Matrix([[m[i, j] if i == j else 0 for j in range(n)] for i in range(n)])
        return m

    s = CliffordStructure(n, form(), form())
    # a letter map on every blade as well, so splits are pruned only where
    # a blade has no letter
    maps = [grade1_projection(s),
            Matrix([[rng.choice([0, 1, F(-1, 2)]) for _ in blades(n)] for _ in range(n)])]
    for letter_map in maps:
        for bound in (2, 3, 4):
            colift = couniversal_lift(letter_map, s, bound)
            for c in blades(n):
                x = Multivector.blade(n, c)
                got, want = colift(x), _naive_couniversal_lift(letter_map, s, bound, x)
                assert (got.terms, got.truncated) == (want.terms, want.truncated)


# -- braid lifts and symmetrizer --------------------------------------------------

def test_braid_lift_switch_swaps():
    s1 = braid_lift(letter_switch(2), 2, 2)[0]
    assert s1.apply_word((0, 1)) == {(1, 0): F(1)}


def test_braid_lift_zero_kills():
    s1 = braid_lift(zero_letter_crossing(2), 2, 2)[0]
    assert s1.apply_word((0, 1)) == {}
    assert s1.apply_word((1, 1)) == {}


def test_braid_lift_negative_switch_sign():
    s2 = braid_lift(letter_switch(2, -1), 3, 2)[1]
    assert s2.apply_word((0, 1, 1)) == {(0, 1, 1): F(-1)}


def test_braid_lift_shape_check():
    with pytest.raises(ValueError):
        braid_lift(Matrix.identity(3), 2, 2)


def test_reduced_word_independence_longest_element():
    # both reduced words of the longest permutation on three strands agree
    for sigma in (letter_switch(2, -1), letter_switch(2)):
        s1, s2 = braid_lift(sigma, 3, 2)
        assert s1.compose(s2).compose(s1) == s2.compose(s1).compose(s2)


def test_symmetrizer_small_cases():
    sym = quantum_symmetrizer(letter_switch(2), 2, 2)
    s1 = braid_lift(letter_switch(2), 2, 2)[0]
    assert sym == WordOperator.identity(2, 2) + s1
    assert sym.rank() == 3
    anti = quantum_symmetrizer(letter_switch(2, -1), 2, 2)
    assert anti.rank() == 1
    zero = quantum_symmetrizer(zero_letter_crossing(2), 2, 2)
    assert zero == WordOperator.identity(2, 2)
    assert zero.rank() == 4


def test_symmetrizer_rejects_non_braid():
    bad = Matrix.from_entries(4, 4, {(0, 0): F(1), (1, 0): F(1), (2, 3): F(1)})
    assert not check_letter_braid_equation(bad, 2)
    with pytest.raises(ValueError):
        quantum_symmetrizer(bad, 3, 2)


def test_exterior_image_dimensions_examples():
    assert exterior_image_dimensions(letter_switch(3, -1), 3, 3) == [1, 3, 3, 1]
    assert exterior_image_dimensions(letter_switch(2), 2, 2) == [1, 2, 3]
    assert exterior_image_dimensions(zero_letter_crossing(2), 2, 2) == [1, 2, 4]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_antisymmetrizer_ranks_are_binomial(n):
    ranks = exterior_image_dimensions(letter_switch(n, -1), n, 4)
    assert ranks == [comb(n, k) for k in range(5)]


def test_operator_matrix_lex_order():
    s1 = braid_lift(letter_switch(2), 2, 2)[0]
    m = s1.to_matrix()
    # lexicographic word order (0,0),(0,1),(1,0),(1,1): transposition swaps the middle
    assert m == Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


# -- word bi-gebra compatibility ----------------------------------------------------

def test_empty_word_crossing_transparent():
    cols = _letter_sigma_columns(zero_letter_crossing(2), 2)
    assert cross_words(cols, (), (0, 1)) == {((0, 1), ()): F(1)}
    assert cross_words(cols, (0, 1), ()) == {((), (0, 1)): F(1)}
    assert cross_words(cols, (0,), (1,)) == {}


def test_zero_crossing_compatibility():
    ok, witnesses = zero_braid_bigebra_check(1, 3)
    assert ok and not witnesses
    ok, witnesses = zero_braid_bigebra_check(2, 4)
    assert ok and not witnesses


def test_switch_crossing_breaks_compatibility():
    ok, witnesses = zero_braid_bigebra_check(2, 4, letter_switch(2))
    assert not ok
    x, y, defect = witnesses[0]
    assert defect  # a concrete word pair witnesses the failure


def test_graded_element_validation():
    with pytest.raises(ValueError):
        GradedElement(2, 2, {(0, 1, 0): 1})
    with pytest.raises(ValueError):
        GradedElement(2, 4, {(5,): 1})
