import itertools
import random
from fractions import Fraction as F
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from xcliff.clifford import CliffordStructure
from xcliff.exterior import Multivector, blades
from xcliff.linmap import LinearMap, agree
from xcliff.scalars import Matrix
from xcliff.tensor_shuffle import (GradedElement, WordOperator,
                                   check_letter_braid_equation, concat_product,
                                   couniversal_lift, cross_words, deconcat_coproduct,
                                   exterior_image_dimensions, grade1_projection,
                                   letter_inclusion, letter_switch, pair_word_tensor,
                                   quantum_symmetrizer, shuffle_product,
                                   unshuffle_coproduct, universal_lift, word_maps,
                                   word_pairing, zero_braid_bigebra_check,
                                   zero_letter_crossing, letter_words)

from oracles import braid_lift
from random_forms import random_form

N, L = 2, 4


def w(*letters):
    return GradedElement.word(N, L, letters)


def all_words(n=N, bound=L):
    return [t for k in range(bound + 1) for t in itertools.product(range(n), repeat=k)]


# -- products and coproducts -------------------------------------------------

def test_concat_examples():
    assert concat_product(w(0), w(1)) == w(0, 1)
    assert concat_product(w(), w(0, 1, 1)) == w(0, 1, 1)
    assert concat_product(w(0) + w(1), w(0)) == w(0, 0) + w(1, 0)


def test_concat_truncation_flagged():
    x = concat_product(w(0, 1, 0), w(1, 1))
    assert not x.terms
    assert x.truncated


def test_deconcat_examples():
    assert deconcat_coproduct(w(0)) == {((), (0,)): F(1), ((0,), ()): F(1)}
    assert deconcat_coproduct(w(0, 1)) == {((), (0, 1)): F(1), ((0,), (1,)): F(1),
                                           ((0, 1), ()): F(1)}
    assert deconcat_coproduct(w()) == {((), ()): F(1)}


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
    unit = w()
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
    assert lift(w()) == s.unit(1)
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
    assert colift(s.unit(1)) == w()
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
    letters = [[(mu, c) for (mu,), c in letter_map.cols.get((b,), {}).items() if c]
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


@pytest.mark.parametrize("n", [1, 2, 3])
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
    rows = [[rng.choice([0, 1, F(-1, 2)]) for _ in blades(n)] for _ in range(n)]
    maps = [grade1_projection(s),
            LinearMap(1, {(b,): {(mu,): rows[mu][b] for mu in range(n) if rows[mu][b]}
                          for b in blades(n)})]
    # the naive expansion takes about 11 s per letter map at rank 3, bound 4
    for letter_map in maps:
        for bound in (2, 3, 4) if n < 3 else (2, 3):
            colift = couniversal_lift(letter_map, s, bound)
            for c in blades(n):
                x = Multivector.blade(n, c)
                got, want = colift(x), _naive_couniversal_lift(letter_map, s, bound, x)
                assert (got.terms, got.truncated) == (want.terms, want.truncated)


# -- braid lifts and symmetrizer --------------------------------------------------

def test_braid_lift_switch_swaps():
    s1 = braid_lift(letter_switch(2), 2, 2)[0]
    assert s1.cols[(0, 1)] == {(1, 0): F(1)}


def test_braid_lift_zero_kills():
    s1 = braid_lift(zero_letter_crossing(2), 2, 2)[0]
    assert s1.cols[(0, 1)] == {}
    assert s1.cols[(1, 1)] == {}


def test_braid_lift_negative_switch_sign():
    s2 = braid_lift(letter_switch(2, -1), 3, 2)[1]
    assert s2.cols[(0, 1, 1)] == {(0, 1, 1): F(-1)}


def test_braid_lift_shape_check():
    with pytest.raises(ValueError):
        braid_lift(LinearMap(2, {x: {x: F(1)} for x in letter_words(3, 2)}), 2, 2)


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
    bad = LinearMap(2, {(0, 0): {(0, 0): F(1), (0, 1): F(1)}, (1, 1): {(1, 0): F(1)}})
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
    m = s1.to_matrix(letter_words(2, 2))
    # lexicographic word order (0,0),(0,1),(1,0),(1,1): transposition swaps the middle
    assert m == Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


# -- word bi-gebra compatibility ----------------------------------------------------

def test_empty_word_crossing_transparent():
    cols = zero_letter_crossing(2)
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


# -- differential test against the hand-written word layer ------------------------
#
# The oracle below is the letter-tuple code that the linmap word layer
# replaced: crossing columns read off the matrix, a recursive word crossing,
# the compatibility square's two sides as explicit loops, and operators
# composed column by column.

def _oracle_columns(crossing, n):
    sigma = crossing.to_matrix(letter_words(n, 2))
    cols = {}
    for c in range(n):
        for d in range(n):
            cols[(c, d)] = {(i // n, i % n): sigma[(i, c * n + d)]
                            for i in range(n * n) if sigma[(i, c * n + d)]}
    return cols


def _oracle_cross_single(cols, c, v):
    out = {(v, (c,)): F(1)} if not v else {}
    if v:
        for (d1, c1), w0 in cols[(c, v[0])].items():
            for (vrest, ctail), w1 in _oracle_cross_single(cols, c1, v[1:]).items():
                key = ((d1,) + vrest, ctail)
                out[key] = out.get(key, F(0)) + w0 * w1
    return out


def _oracle_cross_words(cols, u, v):
    if not u or not v:
        return {(v, u): F(1)}
    out = {}
    for (v1, ctail), w0 in _oracle_cross_single(cols, u[-1], v).items():
        for (v2, urest), w1 in _oracle_cross_words(cols, u[:-1], v1).items():
            key = (v2, urest + ctail)
            out[key] = out.get(key, F(0)) + w0 * w1
    return {k: c for k, c in out.items() if c}


def _oracle_zero_braid_check(n, bound, sigma):
    cols = _oracle_columns(sigma, n)
    witnesses = []
    words = all_words(n, bound)
    for x in words:
        for y in words:
            if len(x) + len(y) > bound:
                continue
            direct = {}
            for i in range(len(x + y) + 1):
                k = ((x + y)[:i], (x + y)[i:])
                direct[k] = direct.get(k, F(0)) + 1
            routed = {}
            for i in range(len(x) + 1):
                for j in range(len(y) + 1):
                    for (v1, u1), c in _oracle_cross_words(cols, x[i:], y[:j]).items():
                        key = (x[:i] + v1, u1 + y[j:])
                        routed[key] = routed.get(key, F(0)) + c
            defect = {k: direct.get(k, F(0)) - routed.get(k, F(0))
                      for k in set(direct) | set(routed)}
            defect = {k: v for k, v in defect.items() if v}
            if defect:
                witnesses.append((x, y, defect))
    return not witnesses, witnesses


def _oracle_compose(a, b):
    """a after b, operators as {word: {word: coeff}}."""
    out = {}
    for w, col in b.items():
        acc = {}
        for u, c in col.items():
            for t, d in a[u].items():
                acc[t] = acc.get(t, F(0)) + c * d
        out[w] = {t: v for t, v in acc.items() if v}
    return out


def _oracle_lifts(cols, k, n):
    lifts = []
    for i in range(1, k):
        op = {}
        for w in itertools.product(range(n), repeat=k):
            op[w] = {}
            for (c, d), v in cols[(w[i - 1], w[i])].items():
                u = w[:i - 1] + (c, d) + w[i + 1:]
                op[w][u] = op[w].get(u, F(0)) + v
        lifts.append(op)
    return lifts


def _oracle_symmetrizer(sigma, k, n):
    cols = _oracle_columns(sigma, n)
    s1, s2 = _oracle_lifts(cols, 3, n)
    if _oracle_compose(_oracle_compose(s1, s2), s1) != _oracle_compose(_oracle_compose(s2, s1), s2):
        raise ValueError("letter crossing does not satisfy the braid equation")
    lifts = _oracle_lifts(cols, k, n)
    words = list(itertools.product(range(n), repeat=k))
    total = {w: {} for w in words}
    for perm in itertools.permutations(range(k)):
        op = {w: {w: F(1)} for w in words}
        for i in _reduced_word_oracle(perm):
            op = _oracle_compose(op, lifts[i - 1])
        for w in words:
            for u, c in op[w].items():
                total[w][u] = total[w].get(u, F(0)) + c
    return {w: {u: c for u, c in col.items() if c} for w, col in total.items()}


def _reduced_word_oracle(perm):
    w, word, i = list(perm), [], 0
    while i < len(w) - 1:
        if w[i] > w[i + 1]:
            w[i], w[i + 1] = w[i + 1], w[i]
            word.append(i + 1)
            i = max(i - 1, 0)
        else:
            i += 1
    return word


ORACLE_SETTINGS = settings(derandomize=True, database=None, max_examples=30, deadline=None)
rationals = st.one_of(st.just(F(0)), st.builds(F, st.integers(-3, 3), st.integers(1, 3)))


def square(size):
    return st.lists(st.lists(rationals, min_size=size, max_size=size),
                    min_size=size, max_size=size)


@st.composite
def letter_crossings(draw):
    """(n, crossing): a map with random rational entries on letter pairs, or
    a diagonal braiding (c, d) -> q[c][d] (d, c), which satisfies the braid
    equation."""
    n = draw(st.sampled_from([1, 2]))
    pairs = letter_words(n, 2)
    if draw(st.booleans()):
        rows = draw(square(n * n))
        return n, LinearMap(2, {x: {y: rows[i][j] for i, y in enumerate(pairs) if rows[i][j]}
                                for j, x in enumerate(pairs)})
    q = draw(square(n))
    return n, LinearMap(2, {(c, d): {(d, c): q[c][d]} for c, d in pairs})


@ORACLE_SETTINGS
@given(letter_crossings(), st.sampled_from([1, 2, 3]))
def test_zero_braid_check_matches_oracle(crossing, bound):
    n, sigma = crossing
    assert zero_braid_bigebra_check(n, bound, sigma) == _oracle_zero_braid_check(n, bound, sigma)
    oracle_cols = _oracle_columns(sigma, n)
    for u in all_words(n, 2):
        for v in all_words(n, 2):
            assert cross_words(sigma, u, v) == _oracle_cross_words(oracle_cols, u, v)


@ORACLE_SETTINGS
@given(letter_crossings(), st.sampled_from([2, 3, 4]))
def test_symmetrizer_matches_oracle(crossing, k):
    n, sigma = crossing
    assert [op.cols for op in braid_lift(sigma, k, n)] == _oracle_lifts(
        _oracle_columns(sigma, n), k, n)
    try:
        want = _oracle_symmetrizer(sigma, k, n)
    except ValueError:
        with pytest.raises(ValueError):
            quantum_symmetrizer(sigma, k, n)
        return
    assert quantum_symmetrizer(sigma, k, n).cols == want


@pytest.mark.parametrize("shuffle", [False, True])
def test_word_maps_are_a_truncated_bigebra(shuffle):
    maps = word_maps(2, 3, shuffle)
    words = list(maps.id.cols)
    triples = [(a, b, c) for (a,), (b,), (c,) in itertools.product(words, repeat=3)
               if len(a) + len(b) + len(c) <= 3]
    m, cop, unit, counit = maps.m, maps.cop, maps.unit, maps.counit
    assert agree(triples, [m.at(0), m.at(0)], [m.at(1), m.at(0)])
    assert agree(words, [cop.at(0), cop.at(0)], [cop.at(0), cop.at(1)])
    for side in (0, 1):
        assert agree(words, [cop.at(0), counit.at(side)], [])
        assert agree(words, [unit.at(side), m.at(0)], [])


def _element_word_maps(n, bound, shuffle):
    """The word maps' columns read off the element functions on basis words:
    a GradedElement per word and one element product per word pair."""
    product, coproduct = ((shuffle_product, unshuffle_coproduct) if shuffle
                          else (concat_product, deconcat_coproduct))
    elem = {w: GradedElement.word(n, bound, w) for w in all_words(n, bound)}
    m = {(u, v): {(w,): c for w, c in product(elem[u], elem[v]).terms.items()}
         for u in elem for v in elem if len(u) + len(v) <= bound}
    cop = {(w,): coproduct(x) for w, x in elem.items()}
    return m, cop


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("n", [1, 2])
def test_word_maps_product_transposes_to_coproduct(n, shuffle):
    # the word pairing makes concatenation dual to deconcatenation and
    # shuffle dual to unshuffle, at every rank and bound verify reaches
    for bound in range(5):
        maps = word_maps(n, bound, shuffle)
        assert maps.m.transpose().cols == maps.cop.cols


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_word_maps_match_element_functions(n, shuffle):
    for bound in range(5):
        maps = word_maps(n, bound, shuffle)
        m, cop = _element_word_maps(n, bound, shuffle)
        assert list(maps.m.cols) == list(m) and maps.m.cols == m
        assert list(maps.cop.cols) == list(cop) and maps.cop.cols == cop
