"""The benchmark's tracer wraps specscale's layers by name from outside
(``bench/tracing.py``).  A refactor that renames or removes a traced
layer must fail here rather than break the traced benchmark run."""

import importlib
import importlib.util
import os
import pkgutil

import specscale

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py"
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("specscale_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_name_resolves():
    missing = [name for name in specscale.__all__ if not hasattr(specscale, name)]
    assert not missing


def test_tracer_installs_on_every_traced_layer():
    for info in pkgutil.iter_modules(specscale.__path__):
        importlib.import_module(f"specscale.{info.name}")
    tracing = _load_tracing()
    expected = set()  # (owner name, attribute) the tracer must wrap
    for mod, path in tracing.TARGETS:
        *owners, attr = path.split(".")
        module = importlib.import_module(f"specscale.{mod}")
        target = getattr(module, owners[0] if owners else attr)
        if isinstance(target, type) and not owners:
            expected.add((target.__name__, "__init__"))
        else:
            expected.add((owners[-1] if owners else f"specscale.{mod}", attr))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = set(tracer.patched_locations())
    finally:
        tracer.remove()
    assert expected <= patched
    assert not tracer.patched_locations()
