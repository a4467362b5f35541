"""Benchmark entry point for xcliff.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: verify and sweep (see README.md).

--trace 0  sets up ``SETUP_REPEATS`` times (``setup_s`` is the median), then
           runs whole rounds of operations, each drawn and prepared just
           before it runs, until ``S`` seconds of operation time are
           measured and the workload's ``min_rounds`` have run, checking
           every output.  Every time is scaled to a calm core by the speed
           probe (probe.py).  Prints ``setup_s``, ``peak_rss_mb``, and
           ``ops_per_s`` and ``op_s.p50`` over each operation's median
           time.
--trace 1  runs the workload's first ``trace_rounds`` rounds untimed by
           layer, then the same rounds again with every public function
           of the program wrapped (tracer.py), and prints the per-layer
           metrics plus ``trace.overhead_s``.  The run length is fixed by the
           rounds, not by ``S``, so its counts repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; it is also written to
``perfbench/out/``, with the spans of a traced run.  Exit code 0 when a
result was printed, 2 when the program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
from probe import Probe  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
MODULES = ("scalars", "exterior", "clifford", "hopf", "braiding", "tensor_shuffle", "cli")


def import_program() -> types.SimpleNamespace:
    """A fresh import of every program module."""
    for name in [m for m in sys.modules if m == "xcliff" or m.startswith("xcliff.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"xcliff.{m}") for m in MODULES})


def prepared_rounds(wl, x, seed: int, workdir: str):
    """The workload's rounds as (specs, inputs), each drawn from the run's
    seed and prepared only when it is asked for, so that one round's inputs
    are alive at a time.  Operation i writes its files under ``workdir/oi``."""
    base = wl.draw_base()
    rng = random.Random(f"{wl.name}-{seed}")
    while True:
        specs = wl.make_round(base, rng)
        yield specs, [wl.prepare(spec, x, f"{workdir}/o{i}") for i, spec in enumerate(specs)]


def set_up(wl, seed: int, workdir: str):
    """Import the program, draw the inputs and prepare the first round."""
    x = import_program()
    rounds = prepared_rounds(wl, x, seed, workdir)
    return x, itertools.chain([next(rounds)], rounds)


class Outcome:
    """The operations that completed, as one {index: (start, end, seconds)}
    dict per round (see :meth:`Probe.took_since`), plus failures and check
    errors."""

    def __init__(self):
        self.rounds: list[dict[int, tuple[float, float, float]]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def durations(self) -> list[float]:
        return [took for times in self.rounds for _, _, took in times.values()]

    def median_times(self, probe: Probe) -> list[float]:
        """Each operation's median scaled time over the rounds of the run."""
        scaled: dict[int, list[float]] = {}
        for times in self.rounds:
            for i, span in times.items():
                scaled.setdefault(i, []).append(probe.scaled(*span))
        return [statistics.median(v) for v in scaled.values()]

    def merge(self, other: "Outcome"):
        self.rounds += other.rounds
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def run_rounds(wl, x, rounds, probe: Probe, seconds=None, tr=None) -> Outcome:
    """Whole rounds from the iterator ``rounds``: all of them if ``seconds``
    is None, else until ``seconds`` of operation time and ``wl.min_rounds``
    rounds have run."""
    res = Outcome()
    measured = 0.0
    for r, (specs, inps) in enumerate(rounds):
        times: dict[int, tuple[float, float, float]] = {}
        res.rounds.append(times)
        for i, (spec, inp) in enumerate(zip(specs, inps)):
            res.attempted += 1
            if tr:
                tr.op, tr.active = f"{r}.{i}", True
            mark = probe.mark()
            try:
                out = wl.run(inp, x)
            except Exception as exc:  # a failed operation is counted, not fatal
                res.failed += 1
                res.errors.append(f"round {r} op {i}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if tr:
                    tr.active = False
            times[i] = probe.took_since(mark)
            measured += times[i][2]
            err = wl.check(spec, inp, out, x)
            if err:
                res.errors.append(f"round {r} op {i}: {err}")
        if seconds is not None and measured >= seconds and len(res.rounds) >= wl.min_rounds:
            break
    return res


def plain_run(wl, seed: int, seconds: float, workdir: str) -> tuple[Outcome, dict]:
    setups = []
    with Probe() as probe:
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the previous set-up's garbage is not this one's work
            mark = probe.mark()
            x, rounds = set_up(wl, seed, workdir)
            setups.append(probe.took_since(mark))
        res = run_rounds(wl, x, rounds, probe, seconds)
    times = res.median_times(probe) or [0.0]
    metrics = {
        "setup_s": (statistics.median(probe.scaled(*span) for span in setups), "s"),
        "ops_per_s": (len(times) / sum(times) if sum(times) else 0.0, "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return res, metrics


def traced_run(wl, seed: int, workdir: str, trace_path: Path) -> tuple[Outcome, dict]:
    """The first ``wl.trace_rounds`` rounds untraced, then the same rounds
    traced."""
    x = import_program()

    def rounds():
        return itertools.islice(prepared_rounds(wl, x, seed, workdir), wl.trace_rounds)

    untimed = Probe()  # never entered: plain CPU seconds, nothing scaled
    res = run_rounds(wl, x, rounds(), untimed)
    tr = tracing.Tracer().install(x)
    try:
        traced = run_rounds(wl, x, rounds(), untimed, tr=tr)
    finally:
        tr.uninstall()
    overhead = sum(traced.durations) - sum(res.durations)
    res.merge(traced)
    trace_path.write_text(json.dumps(tr.spans_json()))
    metrics = tr.metrics()
    metrics["trace.overhead_s"] = (overhead, "s")
    return res, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "xcliff" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC / 'xcliff'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"work-{tag}-", dir=OUT)
    try:
        if args.trace:
            res, metrics = traced_run(wl, args.seed, workdir, OUT / f"spans-{tag}.json")
        else:
            res, metrics = plain_run(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in res.errors:
        print(f"error: {err}", file=sys.stderr)
    failed_checks = len(res.errors) - res.failed
    result = {
        "correct": failed_checks == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{tag}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
