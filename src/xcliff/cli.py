"""Command-line front end: load an instance (n, eta, xi, pairing) from a
UTF-8 JSON config, run the analyses (words up to length --l, 4 by default),
emit deterministic machine-readable reports and optional markdown.

This is the one module that knows the config format (read_config checks
every key, config_of writes it) and the one that builds reports; hopf,
braiding and clifford return mathematical values only.  Each reading that
several reports share is made in one place: the scattering (solve_sigma,
then scattering_map, then braided_flags) in _scattering, the rank-1
parameter a = eta_00 xi_00 in _parameter and the existence-conjecture flag
in conjecture_record.  Each fact has one report shape: the antipode, sigma
and shuffle commands write the verify section of the same name.

Exit codes: 0 pass, 1 hard-invariant failure, 2 usage or parse error.
Conjecture-style checks are recorded in reports but never gate the exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import braiding, hopf, tensor_shuffle as ts
from .clifford import (CliffordStructure, check_counit_is_algebra_map,
                       check_unit_is_cogebra_map, coproduct_grades_ok, coproduct_unit_signs_ok)
from .exterior import Multivector, blade_key, blade_name, blades, check_dim
from .linmap import LinearMap, agree, keys
from .scalars import (MAX_SCALAR_DIGITS, AffineSolutionSet, Matrix, echo, format_scalar,
                      parse_scalar)

VERIFY_MAX_RANK = 3
# tables and antipode build both cliffordizations over 4^n blade pairs first:
# generic rank-7 tables took 18.5 s and 748 MB, and a generic rank-6 antipode
# did not finish in 10 minutes (rank 5: 55.5 s; CPython 3.11, a shared
# 2-vCPU host)
TABLES_MAX_RANK = 6
ANTIPODE_MAX_RANK = 5
# sigma reads the braided flags of its scattering: at rank 4, generic forms
# under "inner" took 184-333 s, 164-172 s of it sigma's exact rank (the other
# 9 family x pairing reports 0.17-3.16 s; CPython 3.11, a shared 2-vCPU host)
SCATTERING_MAX_RANK = 3
# the word-length budget of verify and shuffle: a rank-2 shuffle at bound 8
# takes about 1 s, and each further length multiplies its time and memory
MAX_WORD_BOUND = 8
# the row budget of sweep (--a-values plus --samples): each row is held
# until the report is written (about 16.6 MB of JSON at the cap), and each
# distinct --a-values entry costs a row's solves; a capped sampled sweep
# took about 2 s and 123 MB peak (CPython 3.11, a shared 2-vCPU host)
MAX_SWEEP_ROWS = 50_000


# the keys a config may hold: the instance (n, eta, xi, pairing); any other
# key is refused, so that a misspelled one is not silently ignored
CONFIG_KEYS = ("n", "eta", "xi", "pairing")


class ConfigError(Exception):
    pass


def load_config(path: str, max_rank: int | None = None,
                command: str = "") -> CliffordStructure:
    """The structure of a config file of UTF-8 JSON text (see read_config)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 (byte {exc.start}): {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply to parse") from exc
    return read_config(data, max_rank, command)


def _json_int(text: str) -> int:
    """A JSON integer of a config, its digits counted before it is read: main
    lifts CPython's digit limit, so the scalars' budget holds it instead."""
    if (digits := len(text.lstrip("-"))) > MAX_SCALAR_DIGITS:
        raise ConfigError(f"bad config: an integer of {digits} digits is over the digit "
                          f"budget of {MAX_SCALAR_DIGITS}")
    return int(text)


def read_config(data, max_rank: int | None = None, command: str = "") -> CliffordStructure:
    """The structure of a parsed config.  Every key is checked the same way
    for every command, before any table is built: the keys, the rank (refused
    above max_rank as "<command> supports rank <= max_rank"), the forms, the
    pairing."""
    if not isinstance(data, dict):
        raise ConfigError("bad config: a config must be a JSON object")
    if missing := [key for key in ("n", "eta", "xi") if key not in data]:
        raise ConfigError(f'bad config: missing key "{missing[0]}"')
    if unknown := [key for key in data if key not in CONFIG_KEYS]:
        # the key as echo shows it, without its quotes
        raise ConfigError(f'bad config: unknown key "{echo(unknown[0])[1:-1]}"')
    try:
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"rank must be a JSON integer, got {echo(n)}")
        check_dim(n)
        if max_rank is not None and n > max_rank:
            raise ConfigError(f"{command} supports rank <= {max_rank}")
        # the structure checks the shapes and the pairing before building
        return CliffordStructure(n, _form(data["eta"]), _form(data["xi"]),
                                 pairing=data.get("pairing", "inner"))
    except ValueError as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def _form(data) -> Matrix:
    """A form from a JSON array of row arrays of "p/q" strings."""
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("a matrix must be a JSON array of row arrays")
    return Matrix([[parse_scalar(x) for x in r] for r in data])


def _word_bound(bound: int) -> int:
    """The bound --l, refused unless it is non-negative and within MAX_WORD_BOUND."""
    if bound < 0:
        raise ValueError(f"--l must be a non-negative integer, got {echo(bound)}")
    if bound > MAX_WORD_BOUND:
        raise ConfigError(f"--l {echo(bound)} is over the word-length budget of "
                          f"{MAX_WORD_BOUND}")
    return bound


def config_of(structure: CliffordStructure) -> dict:
    """The config read_config reads as the structure, less the default pairing."""
    cfg = {"n": structure.n, "eta": structure.eta.to_json(), "xi": structure.xi.to_json()}
    if structure.pairing != "inner":
        cfg["pairing"] = structure.pairing
    return cfg


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_out(report: dict, out: str | None):
    text = dump_json(report)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)


# -- tables ------------------------------------------------------------------

def build_tables(structure: CliffordStructure) -> dict:
    n = structure.n
    product = {}
    for s in blades(n):
        for t in blades(n):
            product[f"{blade_name(s)},{blade_name(t)}"] = repr(
                Multivector(n, structure.product_table[(s, t)]))
    coproduct = {blade_name(c): repr(structure.coproduct_table[c])
                 for c in blades(n)}
    return {"product": product, "coproduct": coproduct}


def cmd_tables(args) -> int:
    structure = load_config(args.config, TABLES_MAX_RANK, "tables")
    report = {"structure": config_of(structure), "tables": build_tables(structure)}
    write_out(report, args.out)
    if args.markdown:
        lines = ["# Instance tables", "", "## Product", ""]
        for k, v in sorted(report["tables"]["product"].items()):
            lines.append(f"- {k} -> {v}")
        lines += ["", "## Coproduct", ""]
        for k, v in sorted(report["tables"]["coproduct"].items()):
            lines.append(f"- {k} -> {v}")
        print("\n".join(lines))
    return 0


# -- the reports' shared readings -------------------------------------------------

@dataclass
class ConjectureRecord:
    """Evidence row for the antipode-existence criterion; never an assertion."""

    xi_eta_is_identity: bool
    conjecture_consistent: bool


def conjecture_record(structure: CliffordStructure,
                      sol: AffineSolutionSet) -> ConjectureRecord:
    """Compare 'composite of the two forms is the identity' with antipode
    nonexistence on this instance and record whether the biconditional held;
    ``sol`` is the instance's antipode solution set."""
    composite = structure.eta @ structure.xi  # = id iff xi . eta = id (square factors)
    is_id = composite == Matrix.identity(structure.n)
    return ConjectureRecord(xi_eta_is_identity=is_id,
                            conjecture_consistent=sol.is_consistent != is_id)


def _parameter(structure: CliffordStructure) -> Fraction:
    """The rank-1 parameter a = eta_00 xi_00."""
    return structure.eta[(0, 0)] * structure.xi[(0, 0)]


def _scattering(structure: CliffordStructure
                ) -> tuple[AffineSolutionSet, LinearMap | None, braiding.BraidedReport | None]:
    """The scattering's solution set, the map of its particular solution and
    that map's braided flags; the two are None when the square has no
    solution.  solve_sigma has certified the particular solution on the
    square, and each of the square's two factors' solutions on its rows."""
    sol = braiding.solve_sigma(structure)
    if not sol.is_consistent:
        return sol, None, None
    s = braiding.scattering_map(structure, sol.particular)
    return sol, s, braiding.braided_flags(structure, s)


# -- verify -------------------------------------------------------------------

def _verify_antipode(structure: CliffordStructure, sol: AffineSolutionSet) -> dict:
    """The antipode's existence, uniqueness and existence-conjecture record,
    and the solved antipode as a JSON matrix over the blades, or None."""
    record = conjecture_record(structure, sol)
    return {
        "exists": sol.is_consistent,
        "unique": sol.is_unique if sol.is_consistent else None,
        "conjecture_consistent": record.conjecture_consistent,
        "xi_eta_is_identity": record.xi_eta_is_identity,
        "matrix": hopf.antipode_map(structure, sol.particular).to_matrix(
            keys(structure.n, 1)).to_json() if sol.is_consistent else None,
    }


def _verify_sigma(structure: CliffordStructure, sol: AffineSolutionSet,
                  flags: braiding.BraidedReport | None) -> dict:
    """The solution space and the braided flags of its particular solution."""
    out: dict = {
        "consistent": sol.is_consistent,
        "solution_space_dim": sol.dimension if sol.is_consistent else None,
        "braided_flags": None,
    }
    if flags is None:
        return out
    out["braided_flags"] = {
        "invertible": flags.invertible,
        "braid_equation": flags.braid_equation_holds,
        "product_naturality": flags.product_naturality_holds,
        "coproduct_naturality": flags.coproduct_naturality_holds,
        "verdict_braided": flags.verdict_braided,
    }
    # the paper's iff, read as in criterion 08: {invertible and braid} iff a
    # form vanishes; the two hexagons split by which one does
    out["braided_iff_discrepancy"] = (
        (flags.invertible and flags.braid_equation_holds)
        != (structure.eta.is_zero() or structure.xi.is_zero()))
    return out


def _as_map(inputs: list, image) -> LinearMap:
    """The map sending (x,) to image(x), whose .terms become one-factor keys."""
    return LinearMap(1, {(x,): {(y,): c for y, c in image(x).terms.items()} for x in inputs})


def _verify_shuffle(structure: CliffordStructure, bound: int) -> dict:
    """The lifts of the structure through the concatenation word bi-gebra.
    The word facts fixed by the rank and the bound (the pairing dualities,
    the exterior symmetrizer ranks, the zero-crossing square) are proved in
    the tests."""
    n, maps = structure.n, structure.maps
    concat = ts.word_maps(n, bound)
    pairs = list(concat.m.cols)
    lift = ts.universal_lift(ts.letter_inclusion(structure), structure)
    lifted = _as_map([w for (w,) in concat.id.cols],
                     lambda w: lift(ts.GradedElement.word(n, bound, w)))
    colift = ts.couniversal_lift(ts.grade1_projection(structure), structure, bound)
    colifted = _as_map(blades(n), lambda c: colift(Multivector.blade(n, c)))
    return {
        "universal_lift_multiplicative": agree(
            pairs, [concat.m.at(0), lifted.at(0)],
            [lifted.at(0), lifted.at(1), maps.m.at(0)]),
        # the co-universal lift is comultiplicative up to the bound
        "couniversal_lift_comultiplicative": agree(
            keys(n, 1), [colifted.at(0), concat.cop.at(0)],
            [maps.cop.at(0), _pair_within_bound(colifted, bound).at(0)]),
    }


def _pair_within_bound(lift: LinearMap, bound: int) -> LinearMap:
    """lift (x) lift on pairs, keeping only the word pairs of total length
    <= bound in each image."""
    return LinearMap(2, {x + y: {u + v: a * b for u, a in fx.items() for v, b in fy.items()
                                 if len(u[0]) + len(v[0]) <= bound}
                         for x, fx in lift.cols.items() for y, fy in lift.cols.items()})


def _rank1_checks(structure: CliffordStructure, ant: AffineSolutionSet,
                  sol: AffineSolutionSet, s: LinearMap | None) -> dict:
    """The rank-1 verdicts from the solved antipode and the scattering's
    solution set with the map s of its particular solution.  At a != 1 both
    solutions are unique and match their closed forms, and the quartic
    annihilates the closed-form scattering; at a = 1 there is no antipode
    and the scattering family has dimension 12."""
    a = _parameter(structure)
    if a == 1:
        return {"no_antipode": not ant.is_consistent,
                "sigma_family_dimension_12": sol.dimension == 12}
    cf = braiding.closed_form_sigma(structure.eta[(0, 0)], structure.xi[(0, 0)])
    return {
        "antipode_closed_form_match": (
            ant.is_unique and hopf.antipode_map(structure, ant.particular)
            == hopf.complex_antipode_closed_form(a)),
        "sigma_closed_form_match": sol.is_unique and s == cf,
        "min_poly_ok": braiding.check_min_polynomial(cf, a),
    }


def build_instance_report(structure: CliffordStructure, bound: int) -> dict:
    n = structure.n
    eta_zero = structure.eta.is_zero()
    xi_zero = structure.xi.is_zero()
    counit_alg, _ = check_counit_is_algebra_map(structure)
    unit_cog, _ = check_unit_is_cogebra_map(structure)
    # only facts of this instance: the wedge laws, the coproduct as the
    # transposed dual product and the zero-xi unshuffle hold for every
    # instance of a rank and pairing, and are proved once in the tests
    hard = {
        "product_associative": hopf.product_associative(structure),
        "coassociative": hopf.coassociative(structure),
        "counit_law": hopf.counital(structure),
        "coproduct_grade_pattern": coproduct_grades_ok(structure),
        "coproduct_unit_sign_pattern": coproduct_unit_signs_ok(structure),
        "counit_algebra_map_iff_eta_zero": counit_alg == eta_zero,
        "unit_cogebra_map_iff_xi_zero": unit_cog == xi_zero,
    }
    ant_sol = hopf.solve_antipode(structure)
    antipode = _verify_antipode(structure, ant_sol)
    # solve_antipode certifies its solution on the axiom (by substitution into
    # the same step lists on either route), so uniqueness is what is left
    if antipode["exists"]:
        hard["antipode_unique_and_two_sided"] = bool(antipode["unique"])
    if n <= 2:
        sigma_sol, s, flags = _scattering(structure)
        sigma = _verify_sigma(structure, sigma_sol, flags)
        shuffle = _verify_shuffle(structure, bound)
        hard.update({f"shuffle_{k}": v for k, v in shuffle.items()})
    else:
        sigma = shuffle = {"skipped": f"rank {n} > 2"}
    if n == 1:
        hard.update(_rank1_checks(structure, ant_sol, sigma_sol, s))
    report = {
        "structure": config_of(structure),
        "coproduct_table": {blade_key(c): structure.coproduct_table[c].to_json()
                            for c in blades(n)},
        "hard_checks": hard,
        "hard_pass": all(hard.values()),
        "antipode": antipode,
        "sigma": sigma,
        "shuffle": shuffle,
    }
    return report


def render_markdown(report: dict) -> str:
    lines = ["# Instance report", ""]
    cfg = report["structure"]
    lines.append(f"rank n = {cfg['n']}, eta = {cfg['eta']}, xi = {cfg['xi']}")
    lines.append("")
    lines.append("## Hard checks")
    for k, v in sorted(report["hard_checks"].items()):
        lines.append(f"- {'PASS' if v else 'FAIL'} {k}")
    lines.append("")
    lines.append(f"overall: {'PASS' if report['hard_pass'] else 'FAIL'}")
    ant = report["antipode"]
    lines += ["", "## Antipode",
              f"- exists: {ant['exists']} (unique: {ant['unique']})",
              f"- composite-form identity: {ant['xi_eta_is_identity']}, "
              f"conjecture consistent: {ant['conjecture_consistent']} (recorded)"]
    sig = report["sigma"]
    lines += ["", "## Scattering"]
    if "skipped" in sig:
        lines.append(f"- skipped: {sig['skipped']}")
    else:
        lines.append(f"- solution space dimension: {sig['solution_space_dim']}")
        if sig.get("braided_flags"):
            for k, v in sorted(sig["braided_flags"].items()):
                lines.append(f"- {k}: {v}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    structure = load_config(args.config, VERIFY_MAX_RANK, "verify")
    report = build_instance_report(structure, _word_bound(args.truncation))
    write_out(report, args.out)
    if args.markdown:
        print(render_markdown(report), end="")
    return 0 if report["hard_pass"] else 1


def cmd_antipode(args) -> int:
    structure = load_config(args.config, ANTIPODE_MAX_RANK, "antipode")
    write_out(_verify_antipode(structure, hopf.solve_antipode(structure)), args.out)
    return 0


def cmd_sigma(args) -> int:
    structure = load_config(args.config, SCATTERING_MAX_RANK, "sigma")
    sol, _, flags = _scattering(structure)
    write_out(_verify_sigma(structure, sol, flags), args.out)
    return 0


def cmd_shuffle(args) -> int:
    structure = load_config(args.config, 2, "shuffle summary")
    report = _verify_shuffle(structure, _word_bound(args.truncation))
    write_out(report, args.out)
    return 0 if all(report.values()) else 1


# -- sweep ---------------------------------------------------------------------

def sweep_row(i2_str: str, j2_str: str) -> dict:
    i2, j2 = parse_scalar(i2_str), parse_scalar(j2_str)
    structure = CliffordStructure(1, Matrix([[i2]]), Matrix([[j2]]))
    a = _parameter(structure)
    row: dict = {"i2": format_scalar(i2), "j2": format_scalar(j2), "a": format_scalar(a)}
    ant = hopf.solve_antipode(structure)
    row["antipode_exists"] = ant.is_consistent
    row["conjecture_consistent"] = conjecture_record(structure, ant).conjecture_consistent
    sol, s, flags = _scattering(structure)
    row["sigma_dim"] = sol.dimension if sol.is_consistent else None
    checks = _rank1_checks(structure, ant, sol, s)
    row.update(checks)
    row["hard_ok"] = all(checks.values())
    # at a != 1 sigma_closed_form_match compares the solved map with the
    # closed form; at a = 1 the family has no one member to flag
    if flags is not None and a != 1:
        row["invertible"] = flags.invertible
        row["braid_eq"] = flags.braid_equation_holds
    return row


def random_rational(rng: random.Random) -> Fraction:
    """A seeded draw p/q with p in [-3, 3] and q in [1, 3]."""
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _sweep_pairs(args) -> list[tuple[str, str]]:
    if args.samples < 0:
        raise ConfigError(f"--samples must be a non-negative integer, got {args.samples}")
    a_values = args.a_values.split(",") if args.a_values else []
    rows = len(a_values) + args.samples
    if rows > MAX_SWEEP_ROWS:
        raise ConfigError(f"--a-values and --samples ask for {rows} rows, over the sweep "
                          f"budget of {MAX_SWEEP_ROWS}")
    pairs: list[tuple[str, str]] = []
    for part in a_values:
        a = parse_scalar(part)
        pairs.append((format_scalar(a), "1"))
    rng = random.Random(args.seed)
    for _ in range(args.samples):
        i2 = random_rational(rng)
        j2 = random_rational(rng)
        pairs.append((format_scalar(i2), format_scalar(j2)))
    return pairs


def cmd_sweep(args) -> int:
    pairs = _sweep_pairs(args)
    # --samples draws each coordinate from 15 rationals, so a sampled sweep
    # has at most 225 distinct pairs: each distinct pair's row is computed
    # once and listed for every pair that asked for it
    distinct = {pair: sweep_row(*pair) for pair in dict.fromkeys(pairs)}
    rows = [distinct[pair] for pair in pairs]
    rows.sort(key=lambda r: (r["i2"], r["j2"]))
    aggregate = {
        "rows": len(rows),
        "conjecture_consistent": sum(1 for r in rows if r["conjecture_consistent"]),
        "braid_eq_true": sum(1 for r in rows if r.get("braid_eq") is True),
        "braid_eq_false": sum(1 for r in rows if r.get("braid_eq") is False),
        "hard_ok": all(r["hard_ok"] for r in rows) if rows else True,
    }
    report = {"rows": rows, "aggregate": aggregate, "seed": args.seed,
              "samples": args.samples}
    write_out(report, args.out)
    if args.markdown:
        lines = ["# Sweep", "", f"{len(rows)} rows; "
                 f"conjecture consistent on {aggregate['conjecture_consistent']}; "
                 f"braid equation true/false: {aggregate['braid_eq_true']}"
                 f"/{aggregate['braid_eq_false']}"]
        print("\n".join(lines))
    return 0 if aggregate["hard_ok"] else 1


# -- entry ---------------------------------------------------------------------

class Parser(argparse.ArgumentParser):
    """argparse's parser with its "prog: error: ..." line escaped as by
    ascii() and cut to 200 characters, so at most 200 bytes: a long or wide
    bad value or argument is not echoed whole.  The subcommand parsers are
    made from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        line = f"{self.prog}: error: {message}".encode("ascii", "backslashreplace").decode()
        self.exit(2, (line if len(line) <= 200 else line[:197] + "...") + "\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: each subcommand binds only its
    cmd_* function, which reads the module's helpers when it runs."""
    parser = Parser(prog="xcliff",
                    description="exact engine for deformed exterior algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    parsers = {}
    for name, fn in [("tables", cmd_tables), ("verify", cmd_verify),
                     ("antipode", cmd_antipode), ("sigma", cmd_sigma),
                     ("shuffle", cmd_shuffle), ("sweep", cmd_sweep)]:
        p = parsers[name] = sub.add_parser(name)
        # an unrecognized argument is reported with the subcommand's usage
        p.set_defaults(func=fn, parser=p)
        if name != "sweep":
            p.add_argument("--config", required=True, help="instance JSON path")
        p.add_argument("--out", help="write the JSON report to this path")
        # each command registers only the options it reads
        if name in ("tables", "verify", "sweep"):
            p.add_argument("--markdown", action="store_true", help="print a human summary")
        if name in ("verify", "shuffle"):
            p.add_argument("--l", dest="truncation", type=int, default=4,
                           help="word-length truncation bound (default 4)")

    p = parsers["sweep"]
    p.add_argument("--samples", type=int, default=0, help="random parameter pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a-values", help="comma-separated rational products, realized as (a, 1)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        # stdout holds one document: the summary, or the report
        if getattr(args, "markdown", False) and not args.out:
            args.parser.error("--markdown needs --out")
    except SystemExit as exc:
        return 2 if exc.code else 0
    # exact reports may print ints past CPython's default digit limit: it is
    # lifted for the command only, after the options are read under it (the
    # config's ints and scalars are held to MAX_SCALAR_DIGITS instead)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
