"""The names the benchmark's tracer wraps exist where it looks for them.

``perfbench/tracer.py`` finds each traced function as ``vars(owner)[attr]``
(a method must be defined in its class body, not inherited), each lift
factory as a module attribute, and the exact solver in the modules that
import it by name.  A refactor that drops or moves one of these names fails
here, in the unit tests, and not only in the benchmark's self-test.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
SPAN_TARGETS = [(layer, mod, dotted) for layer, targets in tracer.SPANS.items()
                for mod, dotted in targets]


def _module(name: str) -> types.ModuleType:
    return importlib.import_module(f"xcliff.{name}")


@pytest.mark.parametrize("layer, mod, dotted", SPAN_TARGETS,
                         ids=[f"{mod}.{dotted}" for _, mod, dotted in SPAN_TARGETS])
def test_span_target_resolves_like_the_tracer(layer, mod, dotted):
    owner, attr = tracer._resolve(_module(mod), dotted)
    assert attr in vars(owner), f"{layer}: {mod}.{dotted} is not defined where traced"
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize("layer", sorted(tracer.EVALUATORS))
def test_evaluator_factory_exists(layer):
    mod, attr = tracer.EVALUATORS[layer]
    assert callable(getattr(_module(mod), attr))


def test_solver_is_imported_by_name_where_traced():
    _, attr, callers = tracer.SOLVE
    solve = getattr(_module("scalars"), attr)
    for caller in callers:
        assert vars(_module(caller)).get(attr) is solve, caller
