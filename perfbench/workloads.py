"""The two workloads: how each draws its inputs, what one operation is, and
how its output is checked.

A run is a whole number of rounds, and every round holds the same
operations on the same base inputs up to a seeded change that leaves the
program's arithmetic unchanged.  Inputs pass through three steps:

* ``draw_base()`` draws the base inputs (strings and Fractions) from a
  stream that does not depend on the seed;
* ``make_round(base, rng)`` makes one round's plain data from the base and
  the generator seeded with the run's seed;
* ``prepare(spec, x, path)`` builds what the program needs before the
  operation (config files), untimed; ``path`` is a file path prefix of the
  operation's own;
* ``run(inp, x)`` is the timed operation.  It looks the program's functions
  up at call time, so the traced run sees the wrapped ones.

``min_rounds`` is the fewest rounds a run makes, so that every operation
has that many repeats; ``trace_rounds`` is the number of rounds a traced
run makes.

``check(spec, inp, out, x)`` returns None or a one-line reason, using only
:mod:`checks`.  ``x`` is a namespace holding the program's modules.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import checks


def rational(rng, bound: int = 2) -> Fraction:
    """A nonzero rational with numerator and denominator up to ``bound``."""
    num = rng.choice([k for k in range(-bound, bound + 1) if k])
    return Fraction(num, rng.randint(1, bound))


def form(rng, n: int, kind: str) -> list:
    if kind == "zero":
        return [[Fraction(0)] * n for _ in range(n)]
    if kind == "diag":
        return [[rational(rng) if i == j else Fraction(0) for j in range(n)]
                for i in range(n)]
    return [[rational(rng) for _ in range(n)] for _ in range(n)]


# (eta kind, xi kind) for each family of forms
KINDS = {
    "generic": ("generic", "generic"),
    "diagonal": ("diag", "diag"),
    "xi0": ("generic", "zero"),
    "eta0": ("zero", "generic"),
    "zero": ("zero", "zero"),
}


def config(rng, n: int, kind: str) -> dict:
    """A rank-n config of the given family.  Diagonal pairs are redrawn when
    eta_ii * xi_ii = 1, the value at which a rank-1 factor has no antipode,
    so every round does the same kind of work."""
    eta_kind, xi_kind = KINDS[kind]
    while True:
        eta, xi = form(rng, n, eta_kind), form(rng, n, xi_kind)
        if kind != "diagonal" or all(eta[i][i] * xi[i][i] != 1 for i in range(n)):
            return {"n": n, "eta": eta, "xi": xi, "kind": kind}


def flip_signs(spec: dict, rng) -> dict:
    """The same config in a seeded sign change of the basis, e_i -> s_i e_i:
    both forms become s_i s_j B[i][j].  The algebra is isomorphic and every
    structure constant only changes sign, so the program does exactly the
    same arithmetic on different inputs."""
    n = spec["n"]
    signs = [rng.choice((1, -1)) for _ in range(n)]

    def move(b):
        return [[signs[i] * signs[j] * b[i][j] for j in range(n)] for i in range(n)]

    return dict(spec, eta=move(spec["eta"]), xi=move(spec["xi"]))


def as_json_config(spec: dict) -> dict:
    return {"n": spec["n"],
            "eta": [[str(v) for v in row] for row in spec["eta"]],
            "xi": [[str(v) for v in row] for row in spec["xi"]]}


def build_structure(spec: dict, x):
    Matrix = x.scalars.Matrix
    return x.clifford.CliffordStructure(spec["n"], Matrix(spec["eta"]), Matrix(spec["xi"]))


class Verify:
    """``xcliff verify`` through ``cli.main`` on rank-2 and rank-3 configs of
    every family of forms, the report written to a file.

    Values drawn independently per seed made rank-2 verify operations of one
    family differ by 10-17% (coefficient growth depends on the values).  So
    the base configs are drawn once and every round sign-changes them from
    the run seed: the rounds of a run are repeated measurements of one
    amount of work."""

    name = "verify"
    min_rounds = 3
    trace_rounds = 1

    def __init__(self, ranks=(2, 3), kinds=tuple(KINDS)):
        self.ranks = ranks
        self.kinds = kinds

    def draw_base(self) -> list:
        rng = random.Random(f"{self.name}-base")
        return [config(rng, n, kind) for n in self.ranks for kind in self.kinds]

    def make_round(self, base, rng) -> list:
        return [flip_signs(spec, rng) for spec in base]

    def prepare(self, spec, x, path):
        with open(path + ".json", "w") as fh:
            json.dump(as_json_config(spec), fh)
        return {"config": path + ".json", "out": path + ".out.json"}

    def run(self, inp, x):
        return x.cli.main(["verify", "--config", inp["config"], "--out", inp["out"]])

    def check(self, spec, inp, code, x):
        report = {}
        if code == 0:
            with open(inp["out"]) as fh:
                report = json.load(fh)
        return checks.check_verify_report(code, report, spec, build_structure(spec, x))


class Sweep:
    """``cli.sweep_row`` at rank 1: the fixed rows a = 1, a = -1 and a = 0,
    and random parameter pairs drawn once from a stream that does not depend
    on the seed, each with both signs flipped or not from the run seed (the
    product a, and so the work, is unchanged)."""

    name = "sweep"
    min_rounds = 1
    trace_rounds = 20
    FIXED = (("1", "1"), ("-1", "1"), ("0", "1"))

    def __init__(self, random_rows: int = 29):
        self.random_rows = random_rows

    def draw_base(self) -> list:
        rng = random.Random(f"{self.name}-base")
        return [(rational(rng, 6), rational(rng, 6)) for _ in range(self.random_rows)]

    def make_round(self, base, rng) -> list:
        pairs = [(i2, j2) if rng.random() < 0.5 else (-i2, -j2) for i2, j2 in base]
        return list(self.FIXED) + [(str(i2), str(j2)) for i2, j2 in pairs]

    def prepare(self, spec, x, path):
        return spec

    def run(self, pair, x):
        return x.cli.sweep_row(*pair)

    def check(self, spec, pair, row, x):
        return checks.check_sweep_row(row, *pair)


WORKLOADS = {w.name: w for w in (Verify(), Sweep())}
