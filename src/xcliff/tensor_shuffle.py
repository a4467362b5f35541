"""Word algebras at a truncation bound: concatenation and shuffle products,
their coproducts, the word pairing, lifts between the deformed-algebra world
and the word world, and the braided symmetrizer.

Words are tuples of letters in {0, ..., n-1}.  Elements are sparse vectors
keyed by words (:class:`linmap.SparseVector`); they carry a bound L and an
explicit flag when an operation dropped terms beyond it, which their sums
and multiples keep.  Each of the four word rules (concatenation,
deconcatenation, shuffle, unshuffle) is written once, on basis words with
multiplicities; the element functions are its (bi)linear extension.

The word layer runs on the sparse maps of :mod:`linmap`.  :func:`word_maps`
holds either word bi-gebra as StructureMaps over word tensors (tuples of
words), whose columns are the rules on basis words.  A letter crossing is a
map on letter pairs, used as it is once its letters are checked against the
alphabet; its steps at adjacent positions of a letter string give the
symmetrizer's terms and the crossing of two words.  The letter
map of the co-universal lift is a map from blades to letters.  The
universal lift builds the images of all the words of one length as one
map, once per lift, from the map of the length before; the co-universal
lift runs its coproduct layers in integers over one running denominator.
The compatibility square and the braid relation are the step lists of
:mod:`braiding`, run over these maps.  No operator here is dense.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import lcm

from .braiding import braid_relation, square_defects
from .clifford import CliffordStructure
from .exterior import Multivector
from .linmap import (ONE, LinearMap, SparseVector, StructureMaps, add, agree, chain, dot,
                     structure_maps)

Word = tuple


class GradedElement(SparseVector):
    """Sparse combination of words over an alphabet of ``dim`` letters,
    truncated at a length bound; ``truncated`` flags that an operation
    dropped terms beyond the bound, and a sum or multiple keeps the flag."""

    __slots__ = ("bound", "truncated")

    def __init__(self, dim: int, bound: int, terms: dict | None = None,
                 truncated: bool = False):
        terms = terms or {}
        for w in terms:
            if len(w) > bound:
                raise ValueError(f"word {w} exceeds bound {bound}")
            if any(not 0 <= a < dim for a in w):
                raise ValueError(f"letters of {w} out of range for alphabet {dim}")
        super().__init__(dim, terms)
        self.bound = bound
        self.truncated = truncated

    @classmethod
    def word(cls, dim: int, bound: int, letters) -> "GradedElement":
        return cls(dim, bound, {tuple(letters): Fraction(1)})

    def _result(self, terms: dict, *operands) -> "GradedElement":
        return GradedElement(self.dim, self.bound, terms,
                             any(x.truncated for x in (self, *operands)))

    def _check(self, other):
        if self.dim != other.dim or self.bound != other.bound:
            raise ValueError("alphabet or bound mismatch")

    def __eq__(self, other):
        # a flagged element records terms it has lost, so the flag counts
        return (super().__eq__(other) and self.bound == other.bound
                and self.truncated == other.truncated)

    @staticmethod
    def _term(w: Word, c: Fraction) -> str:
        return f"{c}*{''.join(map(str, w)) or '()'}"

    def __repr__(self):
        return super().__repr__() + (" [truncated]" if self.truncated and self.terms else "")


# -- the four word rules, each on basis words with multiplicities ------------

def _concat(u: Word, v: Word) -> dict:
    return {u + v: 1}


def _shuffles(u: Word, v: Word) -> Counter:
    """Every interleaving of u and v keeping each one's internal order."""
    out: Counter = Counter()
    for left in itertools.combinations(range(len(u) + len(v)), len(u)):
        us, vs = iter(u), iter(v)
        out[tuple(next(us) if i in left else next(vs) for i in range(len(u) + len(v)))] += 1
    return out


def _deconcat(w: Word) -> dict:
    return {(w[:i], w[i:]): 1 for i in range(len(w) + 1)}


def _unshuffles(w: Word) -> Counter:
    """Every split of w over a subset of its positions: (subset, complement)."""
    return Counter((tuple(a for i, a in enumerate(w) if mask >> i & 1),
                    tuple(a for i, a in enumerate(w) if not mask >> i & 1))
                   for mask in range(1 << len(w)))


def _linear(rule, vector: dict) -> dict:
    """The linear extension of a rule on basis keys to a sparse vector."""
    out: dict = {}
    for key, c in vector.items():
        for y, k in rule(key).items():
            out[y] = out.get(y, 0) + c * k
    return {y: c for y, c in out.items() if c}


def _bilinear(rule, x: GradedElement, y: GradedElement) -> GradedElement:
    """The bilinear extension of a product rule on word pairs; pairs past the
    bound are dropped and flagged."""
    x._check(y)
    pairs = {(u, v): a * b for u, a in x.terms.items() for v, b in y.terms.items()}
    kept = {(u, v): c for (u, v), c in pairs.items() if len(u) + len(v) <= x.bound}
    return GradedElement(x.dim, x.bound, _linear(lambda uv: rule(*uv), kept),
                         x.truncated or y.truncated or len(kept) < len(pairs))


def concat_product(x: GradedElement, y: GradedElement) -> GradedElement:
    """Bilinear concatenation; terms past the bound are dropped and flagged."""
    return _bilinear(_concat, x, y)


def shuffle_product(x: GradedElement, y: GradedElement) -> GradedElement:
    return _bilinear(_shuffles, x, y)


def deconcat_coproduct(x: GradedElement) -> dict:
    """Split every word at every position: {(prefix, suffix): coeff}."""
    return _linear(_deconcat, x.terms)


def unshuffle_coproduct(x: GradedElement) -> dict:
    """Split every word over all subsets of positions: {(left, right): coeff}."""
    return _linear(_unshuffles, x.terms)


def word_pairing(alpha: GradedElement, x: GradedElement) -> Fraction:
    """Dual words pair letterwise: coefficient dot product on equal words."""
    return dot(alpha.terms, x.terms)


def pair_word_tensor(alpha: GradedElement, beta: GradedElement, t: dict) -> Fraction:
    """Pair alpha (x) beta against a word tensor {(u, v): coeff}."""
    return dot({(u, v): a * b for u, a in alpha.terms.items() for v, b in beta.terms.items()}, t)


# -- lifts -------------------------------------------------------------------

def universal_lift(images: list[Multivector], structure: CliffordStructure):
    """Algebra morphism from words into the deformed algebra: each letter maps
    to its image, words map to the left-to-right product, the empty word to 1.
    Returns an evaluator on word elements.  The images of all the length-k
    words are built as one map, in one batch, when a word of length k or
    more is first evaluated, and kept for the evaluator's later calls: the
    empty word goes to the unit, and a longer word to the image of all but
    its last letter times that letter's image, one product step per word
    (the product bracketed from the left).  Each word's image is read off
    the map of its length."""
    if len(images) != structure.n:
        raise ValueError("need one image per letter")
    for img in images:
        structure._check(img)
    letter = LinearMap(1, {(i,): {(b,): c for b, c in img.terms.items()}
                           for i, img in enumerate(images)})
    maps = structure.maps
    by_length: list[LinearMap] = []  # the map of the length-k words at k

    def word_images(k: int) -> LinearMap:
        while len(by_length) <= k:
            steps = ([by_length[-1].at(0), letter.at(1), maps.m.at(0)] if by_length
                     else [maps.unit.at(0)])
            by_length.append(LinearMap.of(letter_words(structure.n, len(by_length)), steps))
        return by_length[k]

    def evaluate(x: GradedElement) -> Multivector:
        image: dict = {}
        for w, c in x.terms.items():
            image = add(image, word_images(len(w)).cols[w], c)
        return Multivector(structure.n, {b: c for (b,), c in image.items()})

    return evaluate


def letter_inclusion(structure: CliffordStructure) -> list[Multivector]:
    return [Multivector.basis_vector(structure.n, i) for i in range(structure.n)]


def grade1_projection(structure: CliffordStructure) -> LinearMap:
    """The letter map keeping only vector blades: blade e_mu to letter mu."""
    return LinearMap(1, {(1 << mu,): {(mu,): ONE} for mu in range(structure.n)})


def couniversal_lift(letter_map: LinearMap, structure: CliffordStructure, bound: int):
    """Cogebra morphism (up to truncation) from multivectors into words under
    deconcatenation: collect each iterated-coproduct layer through the letter
    map.  The layer-k contribution of x is letter_map tensored k times applied
    to the (k-1)-fold coproduct; layer 0 is the scalar part.  Only the head
    blade is split again, so a layer holds (head blade, partial word): each
    layer splits the head and sends the new tail through the letter map at
    once, and contributes its head's letter.  The layers stay in integers
    over one running denominator, the product of the steps' denominators,
    and only the contributions are divided by it.  The result is flagged
    truncated when either layer just beyond the bound still contributes (two
    layers are probed because contributions only occur at every other
    length: letters are grade 1 and splitting preserves grade parity)."""
    n = structure.n
    if not letter_map.fits(1, 1 << n, n):
        raise ValueError("letter map must send rank-n blades to letters below n")
    cop = structure.maps.cop

    def evaluate(x: Multivector) -> GradedElement:
        structure._check(x)
        terms: dict = {(): x.scalar_part()} if x.scalar_part() else {}
        den = lcm(*(c.denominator for c in x.terms.values()))
        layer = {(b,): c.numerator * (den // c.denominator) for b, c in x.terms.items()}
        for k in range(1, bound + 3):
            [contrib], d = letter_map.act([layer], 0)
            if k > bound and any(contrib.values()):
                return GradedElement(n, bound, terms, True)
            # words of length k, new keys
            terms.update((w, Fraction(c, den * d)) for w, c in contrib.items() if c)
            if k < bound + 2:
                [layer], d = cop.act([layer], 0)
                [layer], d1 = letter_map.act([layer], 1)
                layer, den = {key: c for key, c in layer.items() if c}, den * d * d1
        return GradedElement(n, bound, terms, False)

    return evaluate


# -- word bi-gebras as sparse maps ------------------------------------------

def letter_words(n: int, k: int) -> list[Word]:
    """Every length-k word over n letters, in lexicographic order."""
    return list(itertools.product(range(n), repeat=k))


def word_maps(n: int, bound: int, shuffle: bool = False) -> StructureMaps:
    """The concatenation/deconcatenation bi-gebra on words of length <= bound,
    or with shuffle=True the shuffle/unshuffle one, as linmap maps over word
    tensors (tuples of words).  The product is defined on the word pairs of
    total length <= bound.  Each column is read straight off the word rule
    that the element functions extend, so each rule is written once."""
    product, coproduct = (_shuffles, _unshuffles) if shuffle else (_concat, _deconcat)
    words = [w for k in range(bound + 1) for w in letter_words(n, k)]
    m = LinearMap(2, {(u, v): {(w,): c for w, c in product(u, v).items()}
                      for u in words for v in words if len(u) + len(v) <= bound})
    cop = LinearMap(1, {(w,): coproduct(w) for w in words})
    return structure_maps(m, cop, one=())


# -- letter crossings and the symmetrizer ------------------------------------

class WordOperator(LinearMap):
    """Linear operator on the length-k word space: a linmap map of arity k
    over letter tuples, so it is itself a step of a composite."""

    __slots__ = ("dim",)

    def __init__(self, dim: int, k: int, columns: dict):
        super().__init__(k, columns)
        self.dim = dim

    @classmethod
    def of_steps(cls, dim: int, k: int, steps: list) -> "WordOperator":
        """The composite of the steps on length-k words."""
        return cls(dim, k, LinearMap.of(letter_words(dim, k), steps).cols)

    @classmethod
    def identity(cls, dim: int, k: int) -> "WordOperator":
        return cls.of_steps(dim, k, [])

    def __add__(self, other: "WordOperator") -> "WordOperator":
        return WordOperator(self.dim, self.arity,
                            {w: add(col, other.cols[w]) for w, col in self.cols.items()})

    def compose(self, other: "WordOperator") -> "WordOperator":
        """self after other."""
        return WordOperator.of_steps(self.dim, self.arity, [other.at(0), self.at(0)])


def letter_switch(n: int, sign: int = 1) -> LinearMap:
    """The (signed) transposition on letter pairs."""
    return LinearMap(2, {(c, d): {(d, c): Fraction(sign)} for c, d in letter_words(n, 2)})


def zero_letter_crossing(n: int) -> LinearMap:
    return LinearMap(2, {pair: {} for pair in letter_words(n, 2)})


def _check_crossing(sigma: LinearMap, n: int) -> None:
    if not sigma.fits(2, n):
        raise ValueError(f"letter crossing must be a map on pairs of letters below {n}")


def check_letter_braid_equation(sigma: LinearMap, n: int) -> bool:
    _check_crossing(sigma, n)
    return agree(letter_words(n, 3), *braid_relation(sigma))


def quantum_symmetrizer(sigma: LinearMap, k: int, n: int) -> WordOperator:
    """The braided factorial [k]! on length-k words: the sum over all
    permutations of their braid-lifted reduced words.  It is built by the
    recursion [m]! = ([m-1]! (x) id) C_m, with s_i the crossing at letters
    i, i+1 and C_m = 1 + s_{m-1} + s_{m-1}s_{m-2} + ... + s_{m-1}...s_1,
    whose terms cross one letter past every letter after it.

    Well-defined, and equal to the sum, only when the letter crossing
    satisfies the braid equation (distant lifts always commute); that
    precondition is checked and violations are rejected."""
    if k < 2:
        return WordOperator.identity(n, k)
    if not check_letter_braid_equation(sigma, n):
        raise ValueError("letter crossing does not satisfy the braid equation")
    total = WordOperator.identity(n, 1)
    for m in range(2, k + 1):
        moves = WordOperator.identity(n, m)
        for j in range(m - 1):
            moves = moves + WordOperator.of_steps(n, m, [sigma.at(i) for i in range(j, m - 1)])
        total = WordOperator.of_steps(n, m, [moves.at(0), total.at(0)])
    return total


def exterior_image_dimensions(sigma: LinearMap, n: int, up_to: int) -> list[int]:
    """Exact rank of the symmetrizer on each word length 0 .. up_to."""
    return [quantum_symmetrizer(sigma, k, n).rank() for k in range(up_to + 1)]


# -- compatibility of the word bi-gebra with a crossing ----------------------

def cross_words(crossing: LinearMap, u: Word, v: Word) -> dict:
    """Cross the whole word u past the whole word v: {(v', u'): coeff}.
    The last letter of u crosses v letter by letter, then the one before it,
    and so on, each crossing a letter-crossing step on adjacent positions of
    the letter string u + v.  Crossings with an empty strand are plain
    transposition (unit strands are transparent)."""
    steps = [crossing.at(i + j) for i in reversed(range(len(u))) for j in range(len(v))]
    return {(s[:len(v)], s[len(v):]): c for s, c in chain({u + v: ONE}, *steps).items()}


def zero_braid_bigebra_check(n: int, bound: int, letter_sigma: LinearMap | None = None):
    """Compatibility square of concatenation and deconcatenation with the
    crossing extended by unit-strand transparency; the default letter crossing
    is zero.  Exhaustive over word pairs with combined length <= bound.
    Returns (all compatible, witnesses) with each witness (x, y, defect
    {(u, v): coeff})."""
    crossing = letter_sigma if letter_sigma is not None else zero_letter_crossing(n)
    _check_crossing(crossing, n)
    maps = word_maps(n, bound)
    pairs = list(maps.m.cols)
    words_crossing = LinearMap(2, {(u, v): cross_words(crossing, u, v) for u, v in pairs})
    witnesses = [(x, y, defect)
                 for (x, y), defect in square_defects(maps, words_crossing, pairs)]
    return not witnesses, witnesses
