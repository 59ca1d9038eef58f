"""The benchmark's span tracer (``perfbench/spans.py``) wraps liqshock
functions by swapping module attributes named in its ``TARGETS`` table.
A target that no longer resolves makes every traced benchmark run crash,
so each one is checked here; the tracer file is only read, never
modified."""

from __future__ import annotations

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    # compile() + exec rather than an import, so no bytecode cache is
    # written next to the benchmark's files.
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    code = compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec")
    exec(code, module.__dict__)
    return module


def test_every_trace_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    missing = [(module_name, attr) for module_name, attr, _, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(module_name),
                                       attr, None))]
    assert missing == []
