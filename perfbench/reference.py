"""Reference figures that are deliberately not workloads: each is one
operation too slow to repeat inside a run.  Timed once, by hand:

    python3 perfbench/reference.py antipode4      # generic rank-4 antipode
    python3 perfbench/reference.py symmetrizer6   # sign switch, n = 3, k up to 6
    python3 perfbench/reference.py sigma3 --limit 120   # rank-3 scattering solve

``--limit`` stops the operation after that many CPU seconds; the address
space is capped at ``--max-gb`` so a solve that does not fit fails with
MemoryError instead of exhausting the machine.  Prints one JSON line with
the CPU seconds, the wall seconds and whether the operation finished.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class OutOfTime(Exception):
    pass


def _on_alarm(signum, frame):
    raise OutOfTime


def structure(x, n: int):
    spec = workloads.config(random.Random(f"reference-{n}"), n, "generic")
    return workloads.build_structure(spec, x)


def antipode4(x):
    s = structure(x, 4)
    return lambda: x.hopf.solve_antipode(s), lambda sol: checks.check_antipode_solutions(s, sol)


def symmetrizer6(x):
    sigma = x.tensor_shuffle.letter_switch(3, -1)
    return (lambda: x.tensor_shuffle.exterior_image_dimensions(sigma, 3, 6),
            lambda ranks: checks.check_ranks(ranks, -1, 3, 6))


def sigma3(x):
    s = structure(x, 3)
    return lambda: x.braiding.solve_sigma(s), lambda sol: checks.check_sigma_solutions(s, sol)


ITEMS = {"antipode4": antipode4, "symmetrizer6": symmetrizer6, "sigma3": sigma3}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("item", choices=sorted(ITEMS))
    parser.add_argument("--limit", type=int, default=0, help="CPU-second limit, 0 for none")
    parser.add_argument("--max-gb", type=float, default=2.0)
    args = parser.parse_args()
    cap = int(args.max_gb * 2**30)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    x = run.import_program()
    op, check = ITEMS[args.item](x)
    if args.limit:
        signal.signal(signal.SIGVTALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_VIRTUAL, args.limit)
    cpu, wall = time.process_time(), time.perf_counter()
    outcome = "finished"
    try:
        out = op()
    except OutOfTime:
        outcome = f"stopped at the {args.limit} s limit"
    except MemoryError:
        outcome = f"MemoryError under the {args.max_gb} GB cap"
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    result = {"item": args.item, "cpu_s": round(cpu, 2), "wall_s": round(wall, 2),
              "outcome": outcome, "python": sys.version.split()[0]}
    if outcome == "finished":
        result["check"] = check(out) or "ok"
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
