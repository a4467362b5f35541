"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

* every workload runs one round at its smallest size and passes its checks;
* every output check rejects a planted wrong result (a flipped sign in one
  antipode entry, a flipped coproduct sign, an inverted sweep flag, a
  failing exit code), and so do the checks of the reference figures
  (reference.py) at their smallest size (a flipped antipode or scattering
  entry, a rank off by one);
* two traced runs give exactly the same counts;
* the speed probe samples while it is entered, its samples' time is taken
  out of the intervals it scales, and it scales an interval without a
  sample of its own by the samples nearest to it;
* ``run.py`` exits non-zero, printing no result, in a directory that holds
  only the benchmark and not the program.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from probe import CALM_S, NEAREST, Probe, probe_work  # noqa: E402
import workloads as wls  # noqa: E402

SMALLEST = {
    "verify": wls.Verify(ranks=(2,), kinds=("xi0",)),
    "sweep": wls.Sweep(random_rows=1),
}
for _wl in SMALLEST.values():
    _wl.trace_rounds = 1

results: list[tuple[str, bool]] = []


def expect(name: str, ok: bool):
    results.append((name, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {name}", flush=True)


def flip_first(values: list) -> list:
    """The same values with the sign of the first nonzero one flipped."""
    out = list(values)
    i = next(i for i, v in enumerate(out) if Fraction(v))
    out[i] = -Fraction(out[i])
    return out


def run_smallest(x, workdir):
    """One round of each workload; returns its specs, inputs and outputs."""
    kept = {}
    for name, wl in SMALLEST.items():
        specs, inps = next(run.prepared_rounds(wl, x, 1, f"{workdir}/{name}"))
        outs = [wl.run(inp, x) for inp in inps]
        errors = [e for e in map(wl.check, specs, inps, outs, [x] * len(outs)) if e]
        expect(f"{name}: smallest round passes its checks {errors or ''}", not errors)
        kept[name] = (specs, inps, outs)
    return kept


def planted(x, kept):
    specs, inps, codes = kept["verify"]
    spec, inp = specs[0], inps[0]
    with open(inp["out"]) as fh:
        report = json.load(fh)
    structure = wls.build_structure(spec, x)
    expect("verify: right report accepted",
           checks.check_verify_report(0, report, spec, structure) is None)
    bad = copy.deepcopy(report)
    row = next(r for r in bad["antipode"]["matrix"] if any(Fraction(v) for v in r))
    row[:] = [str(v) for v in flip_first(row)]
    expect("verify: flipped antipode sign rejected",
           checks.check_verify_report(0, bad, spec, structure) is not None)
    bad = copy.deepcopy(report)
    term = bad["coproduct_table"]["0,1"][0]
    term[2] = str(-Fraction(term[2]))
    expect("verify: flipped coproduct sign rejected",
           checks.check_verify_report(0, bad, spec, structure) is not None)
    expect("verify: exit code 1 rejected",
           checks.check_verify_report(1, report, spec, structure) is not None)
    bad = dict(report, hard_pass=False)
    expect("verify: hard_pass false rejected",
           checks.check_verify_report(0, bad, spec, structure) is not None)

    specs, inps, rows = kept["sweep"]
    for (i2, j2), row in zip(specs, rows):
        a = Fraction(i2) * Fraction(j2)
        expect(f"sweep: right row a = {a} accepted", checks.check_sweep_row(row, i2, j2) is None)
        flag = "braid_eq" if a != 1 else "antipode_exists"
        bad = dict(row, **{flag: not row[flag]})
        expect(f"sweep: inverted {flag} at a = {a} rejected",
               checks.check_sweep_row(bad, i2, j2) is not None)


def reference_checks(x):
    """The checks reference.py applies, at the smallest size."""
    for solver, n, solve, check in (
            ("antipode", 2, x.hopf.solve_antipode, checks.check_antipode_solutions),
            ("sigma", 1, x.braiding.solve_sigma, checks.check_sigma_solutions)):
        structure = wls.build_structure(wls.config(random.Random(solver), n, "generic"), x)
        sol = solve(structure)
        expect(f"reference: right {solver} accepted", check(structure, sol) is None)
        bad = replace(sol, particular=tuple(flip_first(sol.particular)))
        expect(f"reference: flipped {solver} entry rejected", check(structure, bad) is not None)
    for sign in (-1, 1):
        ranks = x.tensor_shuffle.exterior_image_dimensions(
            x.tensor_shuffle.letter_switch(2, sign), 2, 3)
        expect(f"reference: right ranks sign {sign} accepted",
               checks.check_ranks(ranks, sign, 2, 3) is None)
        bad = list(ranks)
        bad[-1] += 1
        expect(f"reference: rank off by one sign {sign} rejected",
               checks.check_ranks(bad, sign, 2, 3) is not None)


def traced_counts_repeat(workdir):
    for name, wl in SMALLEST.items():
        counts = []
        for i in range(2):
            res, metrics = run.traced_run(wl, 1, workdir, Path(workdir) / f"spans-{name}-{i}.json")
            expect(f"{name}: traced run correct, none failed",
                   not res.errors and res.failed == 0)
            counts.append({k: v for k, (v, unit) in metrics.items() if unit != "s"})
        expect(f"{name}: traced counts repeat exactly", counts[0] == counts[1])
        expect(f"{name}: traced run reports every layer metric",
               set(tracing.LAYER_METRICS) <= set(metrics) and "trace.overhead_s" in metrics)


def probe_scales():
    with Probe() as probe:
        mark = probe.mark()
        while len(probe.took) < 20:
            probe_work()
        start, end, took = probe.took_since(mark)
    expect("probe: samples taken and their time left out",
           0 < took and end - start - took >= 0.99 * sum(probe.took[:20]))
    after = probe.at[-1] + 1e-9
    nearest = sum(CALM_S / t for t in probe.took[-NEAREST:]) / NEAREST
    expect("probe: an interval without samples is scaled by its nearest ones",
           abs(probe.scaled(after, after, 1.0) - nearest) < 1e-12)


def refuses_without_program(workdir):
    bare = Path(workdir) / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    expect("run.py refuses without the program",
           proc.returncode != 0 and not proc.stdout.strip())


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        for name in SMALLEST:
            Path(workdir, name).mkdir()
        x = run.import_program()
        planted(x, run_smallest(x, workdir))
        reference_checks(x)
        traced_counts_repeat(workdir)
        probe_scales()
        refuses_without_program(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [name for name, ok in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} self-test checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
