"""The benchmark's tracer wraps library functions at the names their callers look up."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def traced_spans():
    """SPANS of perfbench/tracing.py, read from the file without running the benchmark."""
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_traced_binding_resolves_to_a_callable():
    # a refactor that drops one of these caller-side bindings would break the
    # traced benchmark runs; here it fails on every Python and platform
    spans = traced_spans()
    assert spans
    for span, bindings in spans.items():
        assert bindings, span
        for module, attribute in bindings:
            found = getattr(importlib.import_module(module), attribute, None)
            assert callable(found), (span, module, attribute)
