"""The bench's tracer, ``bench/tracing.py``, rebinds capra functions and
methods by name, and passes some of them positional arguments.  Every name
it reads must still resolve, so a change that drops or reshapes one fails
here, and not only in the traced half of ``bench/selftest.py``.  The tracer
is imported by path and only read; it needs nothing but numpy at import."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("capra_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _module(name: str):
    return importlib.import_module("capra." + name)


def test_every_traced_function_resolves():
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in tracing.FUNCTIONS
               if not callable(getattr(_module(mod), attr, None))]
    assert missing == []


def test_every_traced_method_is_defined_on_its_class():
    missing = [f"{mod}.{cls}.{method}" for mod, cls, method, _ in tracing.METHODS
               if not callable(vars(getattr(_module(mod), cls)).get(method))]
    assert missing == []


def test_the_names_install_reads_besides_the_tables_resolve():
    # The tracer opens the route span itself, with _analytic_applicable, and
    # wraps the suites it times in verification.SUITES.
    assert callable(_module("conjugacy")._analytic_applicable)
    assert set(tracing.SUITES) <= set(_module("verification").SUITES)


def test_specially_wrapped_functions_take_the_positional_arguments_passed():
    # The wrappers call the originals positionally:
    # fn(f, nu, eval_grid, dual_grid, route), fn(points, values, duals) and
    # fn(x, membership, candidates).
    for mod, attr, count in (("envelope", "tightest_convex_on_ball", 5),
                             ("conjugacy", "_conjugate_values", 3),
                             ("oracle", "support_function_bruteforce", 3)):
        inspect.signature(getattr(_module(mod), attr)).bind(*range(count))
