"""Every module-level function of ``xcliff`` is run by a command, named by the
benchmark, or on a short allow-list with its reason.

Each command runs in-process under ``sys.setprofile`` on configs of ranks
1-3 under both pairings, among them a = 1 at rank 1 and eta = xi = id at
rank 2 under the straight pairing (neither has an antipode, so the
scattering comes from the linear solve), and ``sweep`` runs fixed and
sampled rows.  A function counts as run when its code, or for a decorated
function the code it wraps, is entered.  The benchmark's names are read from
``perfbench/tracer.py`` as tests/test_bench_contract.py reads them.  Code
that only the tests call belongs in tests/oracles.py.
"""

import importlib
import inspect
import json
import pkgutil
import sys

import xcliff
from xcliff import cli

from test_bench_contract import tracer

ALLOWED = {
    "hopf._kept": "a decorator, applied when hopf is imported",
    "cli._sweep_row_star": "runs sweep_row in a --jobs pool worker",
    "hopf.solve_antipode_system": "the antipode's guard when a bigebra law fails, "
                                  "which no bilinear form makes happen",
    "hopf.antipode_systems": "the linear system of solve_antipode_system",
    "exterior.contract_sign": "called only by contract",
    "exterior.parse_blade_key": "reads blade keys back in the from_json methods",
    "linmap.dot": "called only by det_pairing, word_pairing and pair_word_tensor",
    "tensor_shuffle._check_crossing": "checks the crossings of the symmetrizer and "
                                      "zero_braid_bigebra_check",
    "tensor_shuffle._linear": "called only by the word-element functions",
    "tensor_shuffle._bilinear": "called only by concat_product and shuffle_product",
    "tensor_shuffle._shuffles": "the shuffle rule of shuffle_product",
    "tensor_shuffle._unshuffles": "the unshuffle rule of unshuffle_coproduct",
    "tensor_shuffle.check_letter_braid_equation": "the precondition of quantum_symmetrizer",
    "tensor_shuffle._reduced_word": "called only by quantum_symmetrizer",
    "tensor_shuffle.letter_switch": "the crossing of perfbench's symmetrizer reference",
    "tensor_shuffle.zero_letter_crossing": "the default crossing of zero_braid_bigebra_check",
    "tensor_shuffle.cross_words": "called only by zero_braid_bigebra_check",
}

RANK2 = ([["1", "1/2"], ["-1", "2"]], [["1", "-1"], ["1/2", "1"]])
RANK3 = [["1", "1/2", "0"], ["-1", "2", "1"], ["0", "1/3", "1"]]
ZERO3 = [["0"] * 3] * 3
IDENTITY2 = [["1", "0"], ["0", "1"]]
# (name, rank, eta, xi, pairing); the rank-3 forms are ones whose scattering
# is cheap (a generic one takes about 1.5 s per command on a shared 2-vCPU
# host)
CONFIGS = [
    ("r1", 1, [["2"]], [["-1/3"]], "inner"),
    ("r1_a1", 1, [["2"]], [["1/2"]], "inner"),
    ("r2_inner", 2, *RANK2, "inner"),
    ("r2_straight", 2, *RANK2, "straight"),
    ("r3_xi0_inner", 3, RANK3, ZERO3, "inner"),
    ("r3_zero_straight", 3, ZERO3, ZERO3, "straight"),
]
IDENTITY = ("r2_identity_straight", 2, IDENTITY2, IDENTITY2, "straight")
COMMANDS = [["tables", "--markdown"], ["verify", "--markdown"], ["antipode"],
            ["sigma"], ["braided"], ["shuffle", "--l", "3"]]


def _runs(tmp_path):
    """(argv, expected exit code) for every command the probe runs."""
    runs = []
    for config in CONFIGS + [IDENTITY]:
        name, n, eta, xi, pairing = config
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"n": n, "eta": eta, "xi": xi, "pairing": pairing}))
        # eta = xi = id at rank 2 needs the 256-unknown scattering solve, about
        # 0.7 s per command under the profiler on the same host, so it runs
        # verify alone
        commands = [["verify"]] if config is IDENTITY else COMMANDS
        for command in commands:
            # shuffle refuses rank 3
            code = 2 if command[0] == "shuffle" and n == 3 else 0
            runs.append(([*command, "--config", str(cfg),
                          "--out", str(tmp_path / "out.json")], code))
    runs.append((["sweep", "--a-values", "1,-1,0,2", "--samples", "3", "--markdown",
                  "--out", str(tmp_path / "sweep.json")], 0))
    return runs


def _entered(runs) -> tuple[set, list]:
    """The code objects entered while the runs execute, and their exit codes."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    # an earlier call may have built the parser already
    cli.build_parser.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, _ in runs:
            codes.append(cli.main(argv))
    finally:
        sys.setprofile(previous)
    return entered, codes


def _module_functions():
    """{"module.name": (module attribute, the function it wraps or is)} for
    every function defined at the top level of an xcliff module."""
    out = {}
    for info in pkgutil.iter_modules(xcliff.__path__):
        module = importlib.import_module(f"xcliff.{info.name}")
        for name, obj in vars(module).items():
            fn = inspect.unwrap(obj) if callable(obj) else obj
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                out[f"{info.name}.{name}"] = (obj, fn)
    return out


def _benchmark_names() -> set:
    spans = {f"{mod}.{dotted}" for targets in tracer.SPANS.values()
             for mod, dotted in targets}
    evaluators = {f"{mod}.{attr}" for mod, attr in tracer.EVALUATORS.values()}
    _, solve, _ = tracer.SOLVE
    return spans | evaluators | {f"scalars.{solve}"}


def test_every_module_function_is_run_or_named_by_the_benchmark(tmp_path, capsys):
    runs = _runs(tmp_path)
    entered, codes = _entered(runs)
    capsys.readouterr()
    assert codes == [code for _, code in runs]
    functions = _module_functions()
    run = {name for name, (obj, fn) in functions.items()
           if fn.__code__ in entered or getattr(obj, "__code__", None) in entered}
    missing = sorted(set(functions) - run - _benchmark_names() - set(ALLOWED))
    assert not missing, ("not run by a command, named by the benchmark or allowed: "
                         + ", ".join(missing))
    stale = sorted(name for name in ALLOWED if name not in functions or name in run)
    assert not stale, "allowed but run, or not a function: " + ", ".join(stale)
