"""The names the benchmark's tracer (``perfbench/tracing.py``) looks up in
the package.  A missing one breaks the traced benchmark run, so each is
checked here, read from the tracer's own tables."""

import importlib.util
from pathlib import Path

import tlurkit
import tlurkit.cli  # noqa: F401  (the tracer wraps cli.main)
from tlurkit import criteria, scan

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing_tables", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_the_package():
    tracing = _tracing()
    names = list(tracing.SPANS) + list(tracing.COUNTS)
    assert names
    for mod, attr in names:
        module = getattr(tlurkit, mod)
        cls, _, name = attr.rpartition(".")
        if cls:  # methods are patched in the class's own namespace
            assert callable(vars(getattr(module, cls)).get(name)), (mod, attr)
        else:
            assert callable(getattr(module, name, None)), (mod, attr)
    assert callable(scan.resolve_workers)


def test_every_registry_entry_reaches_a_criteria_evaluator():
    # the tracer swaps the evaluator held in an entry's closure, or rebinds
    # the module attribute the entry reads at call time
    evaluators = {f for name, f in vars(criteria).items() if name.startswith("eval_")}
    for name, entry in scan.DV_CRITERIA.items():
        fn = entry.evaluate
        held = {c.cell_contents for c in fn.__closure__ or ()
                if callable(c.cell_contents)}
        read = {getattr(criteria, n) for n in fn.__code__.co_names if hasattr(criteria, n)}
        assert evaluators & (held | read), name
