"""Word algebras at a truncation bound: concatenation and shuffle products,
their coproducts, the word pairing, lifts between the deformed-algebra world
and the word world, braid lifts and the permutation-summed symmetrizer.

Words are tuples of letters in {0, ..., n-1}.  Elements carry a bound L and
an explicit flag when an operation dropped terms beyond it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .clifford import CliffordStructure
from .exterior import Multivector, blades
from .scalars import Matrix, sparse_rank

Word = tuple


class GradedElement:
    """Sparse combination of words, truncated at a length bound."""

    __slots__ = ("dim", "bound", "terms", "truncated")

    def __init__(self, dim: int, bound: int, terms: dict | None = None,
                 truncated: bool = False):
        clean = {}
        for w, c in (terms or {}).items():
            w = tuple(w)
            if len(w) > bound:
                raise ValueError(f"word {w} exceeds bound {bound}")
            if any(not 0 <= a < dim for a in w):
                raise ValueError(f"letters of {w} out of range for alphabet {dim}")
            c = Fraction(c)
            if c:
                clean[w] = c
        self.dim = dim
        self.bound = bound
        self.terms = clean
        self.truncated = truncated

    @classmethod
    def word(cls, dim: int, bound: int, letters) -> "GradedElement":
        return cls(dim, bound, {tuple(letters): Fraction(1)})

    @classmethod
    def empty_word(cls, dim: int, bound: int) -> "GradedElement":
        return cls(dim, bound, {(): Fraction(1)})

    def __eq__(self, other):
        return (isinstance(other, GradedElement) and self.dim == other.dim
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return GradedElement(self.dim, self.bound, out,
                             self.truncated or other.truncated)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = Fraction(c)
        return GradedElement(self.dim, self.bound,
                             {w: c * v for w, v in self.terms.items()}, self.truncated)

    __mul__ = __rmul__

    def __repr__(self):
        if not self.terms:
            return "0"
        body = " + ".join(f"{c}*{''.join(map(str, w)) or '()'}"
                          for w, c in sorted(self.terms.items()))
        return body + (" [truncated]" if self.truncated else "")

    def to_json(self) -> list:
        return [[list(w), str(c)] for w, c in sorted(self.terms.items())]

    def _check(self, other):
        if self.dim != other.dim or self.bound != other.bound:
            raise ValueError("alphabet or bound mismatch")


def concat_product(x: GradedElement, y: GradedElement) -> GradedElement:
    """Bilinear concatenation; terms past the bound are dropped and flagged."""
    x._check(y)
    out: dict = {}
    dropped = False
    for u, a in x.terms.items():
        for v, b in y.terms.items():
            if len(u) + len(v) > x.bound:
                dropped = True
                continue
            w = u + v
            out[w] = out.get(w, Fraction(0)) + a * b
    return GradedElement(x.dim, x.bound, out,
                         x.truncated or y.truncated or dropped)


def deconcat_coproduct(x: GradedElement) -> dict:
    """Split every word at every position: {(prefix, suffix): coeff}."""
    out: dict = {}
    for w, c in x.terms.items():
        for i in range(len(w) + 1):
            k = (w[:i], w[i:])
            out[k] = out.get(k, Fraction(0)) + c
    return out


def shuffle_product(x: GradedElement, y: GradedElement) -> GradedElement:
    x._check(y)
    out: dict = {}
    dropped = False
    for u, a in x.terms.items():
        for v, b in y.terms.items():
            if len(u) + len(v) > x.bound:
                dropped = True
                continue
            ab = a * b
            for w in _riffles(u, v):
                out[w] = out.get(w, Fraction(0)) + ab
    return GradedElement(x.dim, x.bound, out,
                         x.truncated or y.truncated or dropped)


def _riffles(u: Word, v: Word):
    """All interleavings of u and v keeping each one's internal order."""
    p, q = len(u), len(v)
    for positions in itertools.combinations(range(p + q), p):
        w = [None] * (p + q)
        for a, i in zip(u, positions):
            w[i] = a
        it = iter(v)
        for i in range(p + q):
            if w[i] is None:
                w[i] = next(it)
        yield tuple(w)


def unshuffle_coproduct(x: GradedElement) -> dict:
    """Split every word over all subsets of positions: {(left, right): coeff}."""
    out: dict = {}
    for w, c in x.terms.items():
        k = len(w)
        for mask in range(1 << k):
            left = tuple(w[i] for i in range(k) if (mask >> i) & 1)
            right = tuple(w[i] for i in range(k) if not (mask >> i) & 1)
            key = (left, right)
            out[key] = out.get(key, Fraction(0)) + c
    return out


def word_pairing(alpha: GradedElement, x: GradedElement) -> Fraction:
    """Dual words pair letterwise: coefficient dot product on equal words."""
    total = Fraction(0)
    small, big = (alpha.terms, x.terms) if len(alpha.terms) <= len(x.terms) else (x.terms, alpha.terms)
    for w, c in small.items():
        v = big.get(w)
        if v:
            total += c * v
    return total


def pair_word_tensor(alpha: GradedElement, beta: GradedElement, t: dict) -> Fraction:
    """Pair alpha (x) beta against a word tensor {(u, v): coeff}."""
    total = Fraction(0)
    for (u, v), c in t.items():
        ca = alpha.terms.get(u)
        if not ca:
            continue
        cb = beta.terms.get(v)
        if cb:
            total += ca * cb * c
    return total


# -- lifts -------------------------------------------------------------------

def universal_lift(images: list[Multivector], structure: CliffordStructure):
    """Algebra morphism from words into the deformed algebra: each letter maps
    to its image, words map to the left-to-right product, the empty word to 1.
    Returns an evaluator on word elements."""
    if len(images) != structure.n:
        raise ValueError("need one image per letter")
    for img in images:
        structure._check(img)

    def evaluate(x: GradedElement) -> Multivector:
        out = Multivector.zero(structure.n)
        for w, c in x.terms.items():
            acc = structure.unit(1)
            for letter in w:
                acc = structure.clifford_product(acc, images[letter])
            out = out + c * acc
        return out

    return evaluate


def letter_inclusion(structure: CliffordStructure) -> list[Multivector]:
    return [Multivector.basis_vector(structure.n, i) for i in range(structure.n)]


def grade1_projection(structure: CliffordStructure) -> Matrix:
    """The letter map keeping only vector blades, as an n x 2^n matrix."""
    n = structure.n
    entries = {(mu, 1 << mu): Fraction(1) for mu in range(n)}
    return Matrix.from_entries(n, 1 << n, entries)


def couniversal_lift(letter_map: Matrix, structure: CliffordStructure, bound: int):
    """Cogebra morphism (up to truncation) from multivectors into words under
    deconcatenation: collect each iterated-coproduct layer through the letter
    map.  The layer-k contribution of x is letter_map tensored k times applied
    to the (k-1)-fold coproduct; layer 0 is the scalar part.  The result is
    flagged truncated when either layer just beyond the bound still
    contributes (two layers are probed because contributions only occur at
    every other length: letters are grade 1 and splitting preserves grade
    parity)."""
    n = structure.n
    if letter_map.nrows != n or letter_map.ncols != (1 << n):
        raise ValueError("letter map must be n x 2^n")

    letters = [[(mu, letter_map[(mu, blade)]) for mu in range(n)
                if letter_map[(mu, blade)]] for blade in blades(n)]

    def evaluate(x: Multivector) -> GradedElement:
        structure._check(x)
        terms: dict = {(): x.scalar_part()} if x.scalar_part() else {}
        layer = {(b,): c for b, c in x.terms.items()}
        truncated = False
        for k in range(1, bound + 3):
            contrib: dict = {}
            for tup, c in layer.items():
                parts = [letters[b] for b in tup]
                if any(not p for p in parts):
                    continue
                for combo in itertools.product(*parts):
                    word = tuple(mu for mu, _ in combo)
                    coeff = c
                    for _, v in combo:
                        coeff *= v
                    contrib[word] = contrib.get(word, Fraction(0)) + coeff
            contrib = {word: v for word, v in contrib.items() if v}
            if k <= bound:
                for word, v in contrib.items():
                    terms[word] = terms.get(word, Fraction(0)) + v
            elif contrib:
                truncated = True
                break
            if k < bound + 2:
                nxt: dict = {}
                for tup, c in layer.items():
                    for (a, b), v in structure.coproduct_table[tup[0]].terms.items():
                        # only the head is split again, so a tuple holding a
                        # blade with no letter can never contribute
                        if not letters[b]:
                            continue
                        key = (a, b) + tup[1:]
                        nv = nxt.get(key, Fraction(0)) + c * v
                        if nv:
                            nxt[key] = nv
                        else:
                            nxt.pop(key, None)
                layer = nxt
        return GradedElement(n, bound, terms, truncated)

    return evaluate


# -- braid lifts and the symmetrizer ----------------------------------------

class WordOperator:
    """Linear operator on the length-k word space, stored as sparse columns."""

    __slots__ = ("dim", "k", "columns")

    def __init__(self, dim: int, k: int, columns: dict):
        self.dim = dim
        self.k = k
        self.columns = columns

    @classmethod
    def identity(cls, dim: int, k: int) -> "WordOperator":
        return cls(dim, k, {w: {w: Fraction(1)}
                            for w in itertools.product(range(dim), repeat=k)})

    @classmethod
    def zero(cls, dim: int, k: int) -> "WordOperator":
        return cls(dim, k, {w: {} for w in itertools.product(range(dim), repeat=k)})

    def __eq__(self, other):
        if not isinstance(other, WordOperator) or (self.dim, self.k) != (other.dim, other.k):
            return False
        for w in self.columns:
            if self.columns[w] != other.columns.get(w, {}):
                return False
        return True

    def __add__(self, other: "WordOperator") -> "WordOperator":
        cols = {}
        for w in self.columns:
            col = dict(self.columns[w])
            for u, c in other.columns[w].items():
                nv = col.get(u, Fraction(0)) + c
                if nv:
                    col[u] = nv
                else:
                    col.pop(u, None)
            cols[w] = col
        return WordOperator(self.dim, self.k, cols)

    def compose(self, other: "WordOperator") -> "WordOperator":
        """self after other."""
        cols = {}
        for w, col in other.columns.items():
            out: dict = {}
            for u, c in col.items():
                for t, d in self.columns[u].items():
                    nv = out.get(t, Fraction(0)) + c * d
                    if nv:
                        out[t] = nv
                    else:
                        out.pop(t, None)
            cols[w] = out
        return WordOperator(self.dim, self.k, cols)

    def apply_word(self, w: Word) -> dict:
        return dict(self.columns[tuple(w)])

    def rank(self) -> int:
        index = {w: i for i, w in enumerate(itertools.product(range(self.dim), repeat=self.k))}
        rows = [{index[u]: c for u, c in col.items()} for col in self.columns.values()]
        return sparse_rank(rows, len(index))

    def to_matrix(self) -> Matrix:
        """Dense matrix in lexicographic word order."""
        words = list(itertools.product(range(self.dim), repeat=self.k))
        index = {w: i for i, w in enumerate(words)}
        entries = {}
        for w, col in self.columns.items():
            j = index[w]
            for u, c in col.items():
                entries[(index[u], j)] = c
        return Matrix.from_entries(len(words), len(words), entries)


def letter_switch(n: int, sign: int = 1) -> Matrix:
    """The (signed) transposition on letter pairs, as an n^2 x n^2 matrix with
    pair (c, d) at column c * n + d."""
    entries = {}
    for c in range(n):
        for d in range(n):
            entries[(d * n + c, c * n + d)] = Fraction(sign)
    return Matrix.from_entries(n * n, n * n, entries)


def zero_letter_crossing(n: int) -> Matrix:
    return Matrix.zeros(n * n, n * n)


def _letter_sigma_columns(sigma: Matrix, n: int) -> dict:
    if sigma.nrows != n * n or sigma.ncols != n * n:
        raise ValueError(f"letter crossing must be {n * n} x {n * n}")
    cols = {}
    for c in range(n):
        for d in range(n):
            col = {}
            for i in range(n * n):
                v = sigma[(i, c * n + d)]
                if v:
                    col[(i // n, i % n)] = v
            cols[(c, d)] = col
    return cols


def braid_lift(sigma: Matrix, k: int, n: int) -> list[WordOperator]:
    """Operators acting with the letter crossing on adjacent positions
    (i, i+1), identity elsewhere; returned for i = 1 .. k-1."""
    cols = _letter_sigma_columns(sigma, n)
    ops = []
    for i in range(1, k):
        opcols = {}
        for w in itertools.product(range(n), repeat=k):
            col = {}
            for (c, d), v in cols[(w[i - 1], w[i])].items():
                u = w[:i - 1] + (c, d) + w[i + 1:]
                col[u] = col.get(u, Fraction(0)) + v
            opcols[w] = col
        ops.append(WordOperator(n, k, opcols))
    return ops


def check_letter_braid_equation(sigma: Matrix, n: int) -> bool:
    ops = braid_lift(sigma, 3, n)
    s1, s2 = ops
    return s1.compose(s2).compose(s1) == s2.compose(s1).compose(s2)


def _reduced_word(perm: tuple) -> list[int]:
    """Adjacent-transposition word sorting the permutation (bubble sort), so
    its length is the inversion count."""
    w = list(perm)
    word = []
    i = 0
    while i < len(w) - 1:
        if w[i] > w[i + 1]:
            w[i], w[i + 1] = w[i + 1], w[i]
            word.append(i + 1)  # 1-based adjacent position
            if i:
                i -= 1
        else:
            i += 1
    return word


def quantum_symmetrizer(sigma: Matrix, k: int, n: int) -> WordOperator:
    """Sum over all permutations of the braid-lifted reduced words.

    Well-defined only when the letter crossing satisfies the braid equation
    (distant lifts always commute); that precondition is checked and violations
    are rejected."""
    if k < 2:
        return WordOperator.identity(n, k)
    if not check_letter_braid_equation(sigma, n):
        raise ValueError("letter crossing does not satisfy the braid equation")
    total = WordOperator.zero(n, k)
    lifts = braid_lift(sigma, k, n)
    for perm in itertools.permutations(range(k)):
        op = WordOperator.identity(n, k)
        for i in _reduced_word(perm):
            op = op.compose(lifts[i - 1])
        total = total + op
    return total


def exterior_image_dimensions(sigma: Matrix, n: int, up_to: int) -> list[int]:
    """Exact rank of the symmetrizer on each word length 0 .. up_to."""
    return [quantum_symmetrizer(sigma, k, n).rank() for k in range(up_to + 1)]


# -- compatibility of the word bi-gebra with a crossing ----------------------

def _cross_single(cols, c: int, v: Word) -> dict:
    """Move one letter past a word via the letter crossing: {(v', (c',)): coeff}."""
    out = {(v, (c,)): Fraction(1)} if not v else {}
    if v:
        # cross c past the first letter, then recurse past the rest
        for (d1, c1), w0 in cols[(c, v[0])].items():
            for (vrest, ctail), w1 in _cross_single(cols, c1, v[1:]).items():
                key = ((d1,) + vrest, ctail)
                out[key] = out.get(key, Fraction(0)) + w0 * w1
    return out


def cross_words(cols, u: Word, v: Word) -> dict:
    """Cross the whole word u past the whole word v: {(v', u'): coeff}.
    Crossings with an empty strand are plain transposition (unit strands are
    transparent); letter-letter crossings use the given matrix."""
    if not u or not v:
        return {(v, u): Fraction(1)}
    out: dict = {}
    c = u[-1]
    for (v1, ctail), w0 in _cross_single(cols, c, v).items():
        for (v2, urest), w1 in cross_words(cols, u[:-1], v1).items():
            key = (v2, urest + ctail)
            out[key] = out.get(key, Fraction(0)) + w0 * w1
    return {k: c for k, c in out.items() if c}


def zero_braid_bigebra_check(n: int, bound: int, letter_sigma: Matrix | None = None):
    """Compatibility square of concatenation and deconcatenation with the
    crossing extended by unit-strand transparency; the default letter crossing
    is zero.  Exhaustive over word pairs with combined length <= bound.
    Returns (all compatible, witnesses) with each witness
    (x, y, defect {(u, v): coeff})."""
    sigma = letter_sigma if letter_sigma is not None else zero_letter_crossing(n)
    cols = _letter_sigma_columns(sigma, n)
    witnesses = []
    all_words = [w for k in range(bound + 1)
                 for w in itertools.product(range(n), repeat=k)]
    for x in all_words:
        for y in all_words:
            if len(x) + len(y) > bound:
                continue
            direct = {}
            w = x + y
            for i in range(len(w) + 1):
                k = (w[:i], w[i:])
                direct[k] = direct.get(k, Fraction(0)) + 1
            routed: dict = {}
            for i in range(len(x) + 1):
                x1, x2 = x[:i], x[i:]
                for j in range(len(y) + 1):
                    y1, y2 = y[:j], y[j:]
                    for (v1, u1), c in cross_words(cols, x2, y1).items():
                        key = (x1 + v1, u1 + y2)
                        routed[key] = routed.get(key, Fraction(0)) + c
            defect = {k: v for k, v in
                      ((k, direct.get(k, Fraction(0)) - routed.get(k, Fraction(0)))
                       for k in set(direct) | set(routed)) if v}
            if defect:
                witnesses.append((x, y, defect))
    return not witnesses, witnesses
