"""Every function of ``xcliff``, at a module's top level or in a class body, is
run by a command, named by the benchmark, or on a short allow-list with its
reason.

Each command runs in-process under ``sys.setprofile`` on configs of ranks
1-3 under both pairings, among them a = 1 at rank 1 and eta = xi = id at
rank 2 under the straight pairing (neither has an antipode, and both
factors of the scattering's square have a kernel), and ``sweep`` runs fixed and
sampled rows.  A function counts as run when its code, or for a decorated
function the code it wraps, is entered.  The benchmark's names are read from
``perfbench/tracer.py`` as tests/test_bench_contract.py reads them.  Code
that dataclass and namedtuple generate is skipped: its code object's file is
not the module's.  Code that only the tests call belongs in tests/oracles.py.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import sys

import xcliff
from xcliff import cli

from test_bench_contract import tracer

ALLOWED = {
    "hopf.solve_antipode_system": "the antipode's guard when a bigebra law fails, "
                                  "which no bilinear form makes happen",
    "exterior.contract_sign": "called only by contract",
    "scalars.echo": "shows a bad config value in a parse error, which the probe's "
                    "well-formed configs never raise",
    "linmap.dot": "called only by det_pairing, word_pairing and pair_word_tensor",
    "linmap.chain": "applies a composite to one vector: cross_words and the element "
                    "product and coproduct",
    "tensor_shuffle._check_crossing": "checks the crossings of the symmetrizer and "
                                      "zero_braid_bigebra_check",
    "tensor_shuffle._linear": "called only by the word-element functions",
    "tensor_shuffle._bilinear": "called only by concat_product and shuffle_product",
    "tensor_shuffle._shuffles": "the shuffle rule of shuffle_product",
    "tensor_shuffle._unshuffles": "the unshuffle rule of unshuffle_coproduct",
    "tensor_shuffle.check_letter_braid_equation": "the precondition of quantum_symmetrizer",
    "tensor_shuffle.letter_switch": "the crossing of perfbench's symmetrizer reference",
    "tensor_shuffle.zero_letter_crossing": "the default crossing of zero_braid_bigebra_check",
    "tensor_shuffle.cross_words": "called only by zero_braid_bigebra_check",
    "cli.Parser.error": "argparse calls it on a bad argument, which the probe's "
                        "well-formed runs never give",
    "clifford.Tensor2.outer": "builds the tensor products the tests check coproducts against",
    "clifford.CliffordStructure.clifford_product": "the element product, which the tests "
                                                   "check the product map against",
    "clifford.CliffordStructure.coproduct": "the element coproduct, which the tests check "
                                            "the coproduct map against",
    "exterior.Multivector.is_homogeneous": "called only by contract",
    "scalars.Matrix.zeros": "builds the zero forms of 46 test call sites",
    "scalars.Matrix.__repr__": "shows a form in a failing assertion's message",
    "scalars.AffineSolutionSet.members": "walks a solution family in the tests, whose "
                                         "callers would otherwise copy it",
    "scalars.SingularMatrixError.__init__": "raised only by invert, on a singular matrix",
}

# classes whose whole interface serves the tests or a benchmark-named
# function: a method of theirs that no command enters needs no entry
ALLOWED_CLASSES = {
    "linmap.SparseVector": "the element arithmetic (+, -, scaling, ==) of the tests "
                           "and the word-element functions",
    "tensor_shuffle.GradedElement": "the word elements of the word-element functions "
                                    "and the tests",
    "tensor_shuffle.WordOperator": "the operators of quantum_symmetrizer",
}

RANK2 = ([["1", "1/2"], ["-1", "2"]], [["1", "-1"], ["1/2", "1"]])
RANK3 = [["1", "1/2", "0"], ["-1", "2", "1"], ["0", "1/3", "1"]]
ZERO3 = [["0"] * 3] * 3
IDENTITY2 = [["1", "0"], ["0", "1"]]
# (name, rank, eta, xi, pairing); the rank-3 forms are ones whose scattering
# is cheap (a generic one takes about 0.7 s per sigma command on a shared
# 2-vCPU host)
CONFIGS = [
    ("r1", 1, [["2"]], [["-1/3"]], "inner"),
    ("r1_a1", 1, [["2"]], [["1/2"]], "inner"),
    ("r2_inner", 2, *RANK2, "inner"),
    ("r2_straight", 2, *RANK2, "straight"),
    ("r3_xi0_inner", 3, RANK3, ZERO3, "inner"),
    ("r3_zero_straight", 3, ZERO3, ZERO3, "straight"),
    ("r2_identity_straight", 2, IDENTITY2, IDENTITY2, "straight"),
]
COMMANDS = [["tables", "--markdown"], ["verify", "--markdown"], ["antipode"],
            ["sigma"], ["shuffle", "--l", "3"]]


def _runs(tmp_path):
    """(argv, expected exit code) for every command the probe runs."""
    runs = []
    for name, n, eta, xi, pairing in CONFIGS:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"n": n, "eta": eta, "xi": xi, "pairing": pairing}))
        for command in COMMANDS:
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


def _unwrapped(attr):
    """The function a module or class-body attribute holds, unwrapped."""
    if isinstance(attr, (staticmethod, classmethod)):
        attr = attr.__func__
    elif isinstance(attr, property):
        attr = attr.fget
    elif isinstance(attr, functools.cached_property):
        attr = attr.func
    return inspect.unwrap(attr) if callable(attr) else attr


def _module_functions():
    """{"module.name" or "module.Class.name": (attribute, the function it
    wraps or is)} for every function whose code is in an xcliff module's
    file, at the module's top level or in the body of one of its classes."""
    out = {}
    for info in pkgutil.iter_modules(xcliff.__path__):
        module = importlib.import_module(f"xcliff.{info.name}")
        scopes = [(info.name, vars(module))]
        scopes += [(f"{info.name}.{name}", vars(obj)) for name, obj in vars(module).items()
                   if inspect.isclass(obj) and obj.__module__ == module.__name__]
        for prefix, namespace in scopes:
            for name, obj in namespace.items():
                fn = _unwrapped(obj)
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    out[f"{prefix}.{name}"] = (obj, fn)
    return out


def _class_of(name: str) -> str:
    """"module.Class" for a method's name, the name itself otherwise."""
    return name.rsplit(".", 1)[0] if name.count(".") == 2 else name


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
    missing = sorted(name for name in set(functions) - run - _benchmark_names() - set(ALLOWED)
                     if _class_of(name) not in ALLOWED_CLASSES)
    assert not missing, ("not run by a command, named by the benchmark or allowed: "
                         + ", ".join(missing))
    stale = sorted(name for name in ALLOWED if name not in functions or name in run)
    stale += sorted(cls for cls in ALLOWED_CLASSES
                    if not any(_class_of(name) == cls for name in set(functions) - run))
    assert not stale, "allowed but run, or not a function: " + ", ".join(stale)
