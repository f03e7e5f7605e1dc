"""The benchmark's span tracer (perfbench/spans.py) wraps kitespec names by
attribute; a renamed or dropped name would make ``Tracer.install()`` raise.
This test reads the tracer's tables and checks each name exists."""

import importlib
import importlib.util
from pathlib import Path

from kitespec.polynomial import IntPolynomial

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(module, attr) for module, attr, _ in spans.BINDINGS] + list(spans.GENERATORS)
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not callable(getattr(importlib.import_module(f"kitespec.{module}"), attr, None))
    ]
    missing += [
        f"IntPolynomial.{attr}"
        for attr, _ in spans.POLY_METHODS
        if not callable(getattr(IntPolynomial, attr, None))
    ]
    assert not missing, missing
