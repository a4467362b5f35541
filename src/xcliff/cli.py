"""Command-line front end: load an (n, eta, xi) instance from JSON, run the
analyses, emit deterministic machine-readable reports and optional markdown.

This is the one module that builds reports; hopf, braiding and clifford
return mathematical values only.  Each reading that several reports share
is made in one place: the scattering (solve_sigma, then scattering_map, then
braided_flags) in _scattering, the antipode's JSON matrix in
_antipode_matrix, the rank-1 parameter a = eta_00 xi_00 in _parameter and
the existence-conjecture flag in conjecture_record.

Exit codes: 0 pass, 1 hard-invariant failure, 2 usage or parse error.
Conjecture-style checks are recorded in reports but never gate the exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import braiding, hopf, tensor_shuffle as ts
from .clifford import (CliffordStructure, check_counit_is_algebra_map,
                       check_unit_is_cogebra_map, coproduct_grades_ok, coproduct_unit_signs_ok)
from .exterior import Multivector, blade_key, blade_name, blades
from .linmap import ONE, LinearMap, agree, keys
from .scalars import AffineSolutionSet, Matrix, format_scalar, parse_scalar

VERIFY_MAX_RANK = 3
# sigma and braided solve the scattering: on generic rank-4 forms its closed
# form took about 67 s to build and 98 s to certify, and the braided flags did
# not finish in 12 minutes (CPython 3.11, a shared 2-vCPU host)
SCATTERING_MAX_RANK = 3
# the word-length budget of verify and shuffle: a rank-2 shuffle at bound 8
# takes about 1 s, and each further length multiplies its time and memory
MAX_WORD_BOUND = 8


class ConfigError(Exception):
    pass


def load_config(path: str, max_rank: int | None = None,
                command: str = "") -> tuple[CliffordStructure, dict]:
    """The structure and options of a config file; a rank above max_rank is
    refused with "<command> supports rank <= max_rank" before any table is
    built."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply to parse") from exc
    try:
        if max_rank is not None and CliffordStructure.config_rank(data) > max_rank:
            raise ConfigError(f"{command} supports rank <= {max_rank}")
        structure = CliffordStructure.from_config(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("bad config: options must be an object")
    return structure, options


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

def mv_str(x: Multivector) -> str:
    if not x.terms:
        return "0"
    parts = []
    for b in sorted(x.terms):
        c = format_scalar(x.terms[b])
        parts.append(f"{c}*{blade_name(b)}" if b else c)
    return " + ".join(parts)


def build_tables(structure: CliffordStructure) -> dict:
    n = structure.n
    product = {}
    for s in blades(n):
        for t in blades(n):
            product[f"{blade_name(s)},{blade_name(t)}"] = mv_str(
                Multivector(n, structure.product_table[(s, t)]))
    coproduct = {blade_name(c): repr(structure.coproduct_table[c])
                 for c in blades(n)}
    return {"product": product, "coproduct": coproduct}


def cmd_tables(args) -> int:
    structure, _ = load_config(args.config)
    report = {"structure": structure.to_config(), "tables": build_tables(structure)}
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
    antipode_exists: bool
    conjecture_consistent: bool


def conjecture_record(structure: CliffordStructure,
                      sol: AffineSolutionSet) -> ConjectureRecord:
    """Compare 'composite of the two forms is the identity' with antipode
    nonexistence on this instance and record whether the biconditional held;
    ``sol`` is the instance's antipode solution set."""
    composite = structure.eta @ structure.xi  # = id iff xi . eta = id (square factors)
    is_id = composite == Matrix.identity(structure.n)
    exists = sol.is_consistent
    return ConjectureRecord(xi_eta_is_identity=is_id, antipode_exists=exists,
                            conjecture_consistent=(exists == (not is_id)))


def _antipode_matrix(structure: CliffordStructure, sol: AffineSolutionSet) -> list | None:
    """The solved antipode as a JSON matrix over the blades, or None."""
    if not sol.is_consistent:
        return None
    return hopf.antipode_map(structure, sol.particular).to_matrix(keys(structure.n, 1)).to_json()


def _parameter(structure: CliffordStructure) -> Fraction:
    """The rank-1 parameter a = eta_00 xi_00."""
    return structure.eta[(0, 0)] * structure.xi[(0, 0)]


def _scattering(structure: CliffordStructure
                ) -> tuple[AffineSolutionSet, LinearMap | None, braiding.BraidedReport | None]:
    """The scattering's solution set, the map of its particular solution and
    that map's braided flags; the two are None when the square has no
    solution.  solve_sigma has certified every member on the compatibility
    square: the closed form by substitution, the linear solve by
    substituting the particular solution and each nullspace vector into rows
    linearized from the same step lists."""
    sol = braiding.solve_sigma(structure)
    if not sol.is_consistent:
        return sol, None, None
    s = braiding.scattering_map(structure, sol.particular)
    return sol, s, braiding.braided_flags(structure, s)


def _flags_json(flags: braiding.BraidedReport) -> dict:
    return {
        "invertible": flags.invertible,
        "braid_equation": flags.braid_equation_holds,
        "product_naturality": flags.product_naturality_holds,
        "coproduct_naturality": flags.coproduct_naturality_holds,
        "verdict_braided": flags.verdict_braided,
    }


# -- verify -------------------------------------------------------------------

def _verify_antipode(structure: CliffordStructure, sol: AffineSolutionSet) -> dict:
    record = conjecture_record(structure, sol)
    return {
        "exists": sol.is_consistent,
        "unique": sol.is_unique if sol.is_consistent else None,
        "conjecture_consistent": record.conjecture_consistent,
        "xi_eta_is_identity": record.xi_eta_is_identity,
        "matrix": _antipode_matrix(structure, sol),
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
    out["braided_flags"] = _flags_json(flags)
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
    # the co-universal lift is comultiplicative up to the bound
    within_bound = LinearMap(2, {p: {p: ONE} for p in pairs})
    return {
        "universal_lift_multiplicative": agree(
            pairs, [concat.m.at(0), lifted.at(0)],
            [lifted.at(0), lifted.at(1), maps.m.at(0)]),
        "couniversal_lift_comultiplicative": agree(
            keys(n, 1), [colifted.at(0), concat.cop.at(0)],
            [maps.cop.at(0), colifted.at(0), colifted.at(1), within_bound.at(0)]),
    }


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
    ant_sol = hopf.antipode_solution(structure)
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
        "structure": structure.to_config(),
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


def _truncation(args, options: dict) -> int:
    """The word-length bound: --l when given, else the config's
    "truncation", else 4; refused above MAX_WORD_BOUND."""
    if args.truncation is not None:
        bound, source = args.truncation, "--l"
        if bound < 0:
            raise ConfigError(f"--l must be a non-negative integer, got {bound}")
    else:
        bound, source = options.get("truncation", 4), "truncation"
        if isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
            raise ConfigError("bad config: truncation must be a non-negative integer, "
                              f"got {bound!r}")
    if bound > MAX_WORD_BOUND:
        raise ConfigError(f"{source} {bound} is over the word-length budget of {MAX_WORD_BOUND}")
    return bound


def cmd_verify(args) -> int:
    structure, options = load_config(args.config, VERIFY_MAX_RANK, "verify")
    bound = _truncation(args, options)
    report = build_instance_report(structure, bound)
    write_out(report, args.out)
    if args.markdown:
        print(render_markdown(report), end="")
    return 0 if report["hard_pass"] else 1


def antipode_report_json(structure: CliffordStructure) -> dict:
    """The antipode command's report: the solved antipode matrix or null,
    the conjecture consistency flag and, at rank 1, the parameter a."""
    sol = hopf.antipode_solution(structure)
    report = {"antipode": _antipode_matrix(structure, sol),
              "conjecture_consistent": conjecture_record(structure, sol).conjecture_consistent}
    if structure.n == 1:
        report["a"] = format_scalar(_parameter(structure))
    return report


def braiding_report_json(structure: CliffordStructure) -> dict:
    """The sigma command's report: the scattering's solution space and the
    braided flags of its particular solution; at rank 1 also the parameter a
    and, at a != 1, the quartic check."""
    sol, s, flags = _scattering(structure)
    report: dict = {
        "sigma_unique": sol.is_unique,
        "solution_space_dim": sol.dimension if sol.is_consistent else None,
        "min_poly_ok": None, "invertible": None, "braid_eq": None,
        "braided_verdict": None, "braided_flags": None,
    }
    a = _parameter(structure) if structure.n == 1 else None
    if a is not None:
        report["a"] = format_scalar(a)
    if flags is not None:
        report.update({"invertible": flags.invertible, "braid_eq": flags.braid_equation_holds,
                       "braided_verdict": flags.verdict_braided,
                       "braided_flags": _flags_json(flags)})
        if a is not None and a != 1:
            report["min_poly_ok"] = braiding.check_min_polynomial(s, a)
    return report


def cmd_antipode(args) -> int:
    structure, _ = load_config(args.config)
    write_out(antipode_report_json(structure), args.out)
    return 0


def cmd_sigma(args) -> int:
    structure, _ = load_config(args.config, SCATTERING_MAX_RANK, "sigma")
    write_out(braiding_report_json(structure), args.out)
    return 0


def cmd_braided(args) -> int:
    structure, _ = load_config(args.config, SCATTERING_MAX_RANK, "braided")
    sol, _, flags = _scattering(structure)
    report = {"consistent": False} if flags is None else {
        **_flags_json(flags), "solution_space_dim": sol.dimension}
    write_out(report, args.out)
    return 0


def cmd_shuffle(args) -> int:
    structure, options = load_config(args.config, 2, "shuffle summary")
    bound = _truncation(args, options)
    report = _verify_shuffle(structure, bound)
    write_out(report, args.out)
    return 0 if all(report.values()) else 1


# -- sweep ---------------------------------------------------------------------

def sweep_row(i2_str: str, j2_str: str) -> dict:
    i2, j2 = parse_scalar(i2_str), parse_scalar(j2_str)
    structure = CliffordStructure(1, Matrix([[i2]]), Matrix([[j2]]))
    a = _parameter(structure)
    row: dict = {"i2": format_scalar(i2), "j2": format_scalar(j2), "a": format_scalar(a)}
    ant = hopf.antipode_solution(structure)
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
    pairs: list[tuple[str, str]] = []
    if args.a_values:
        for part in args.a_values.split(","):
            a = parse_scalar(part)
            pairs.append((format_scalar(a), "1"))
    rng = random.Random(args.seed)
    for _ in range(args.samples):
        i2 = random_rational(rng)
        j2 = random_rational(rng)
        pairs.append((format_scalar(i2), format_scalar(j2)))
    return pairs


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be a positive integer, got {args.jobs}")
    pairs = _sweep_pairs(args)
    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs > 1 and len(pairs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_row_star, pairs))
    else:
        rows = [sweep_row(i2, j2) for i2, j2 in pairs]
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


def _sweep_row_star(pair: tuple[str, str]) -> dict:
    return sweep_row(*pair)


# -- entry ---------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: each subcommand binds only its
    cmd_* function, which reads the module's helpers when it runs."""
    parser = argparse.ArgumentParser(prog="xcliff",
                                     description="exact engine for deformed exterior algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    parsers = {}
    for name, fn in [("tables", cmd_tables), ("verify", cmd_verify),
                     ("antipode", cmd_antipode), ("sigma", cmd_sigma),
                     ("braided", cmd_braided), ("shuffle", cmd_shuffle), ("sweep", cmd_sweep)]:
        p = parsers[name] = sub.add_parser(name)
        p.set_defaults(func=fn)
        if name != "sweep":
            p.add_argument("--config", required=True, help="instance JSON path")
        p.add_argument("--out", help="write the JSON report to this path")
        # each command registers only the options it reads
        if name in ("tables", "verify", "sweep"):
            p.add_argument("--markdown", action="store_true", help="print a human summary")
        if name in ("verify", "shuffle"):
            p.add_argument("--l", dest="truncation", type=int, default=None,
                           help="word-length truncation bound")

    p = parsers["sweep"]
    p.add_argument("--samples", type=int, default=0, help="random parameter pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--a-values", help="comma-separated rational products, realized as (a, 1)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
