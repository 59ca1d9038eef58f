"""The benchmark's span tracer (``perfbench/spans.py``) wraps liqshock
functions by swapping module attributes named in its ``TARGETS`` table.
A target that no longer resolves makes every traced benchmark run crash,
so each one is checked here, and the clock commands are checked to call
the names the tracer patches; the tracer file is only read, never
modified."""

from __future__ import annotations

import importlib
import inspect

import pytest

from conftest import load_perfbench

from liqshock.cli import main


def test_every_trace_target_resolves():
    spans = load_perfbench("spans")[0]
    assert spans.TARGETS
    missing = [(module_name, attr) for module_name, attr, _, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(module_name),
                                       attr, None))]
    assert missing == []


@pytest.mark.parametrize("command, module_name, attr", [
    ("ttm", "liqshock.bs", "implied_ttm"),
    ("ttm", "liqshock.bs", "bs_price"),
    ("hedge", "liqshock.cli", "hedge_report"),
    ("hedge", "liqshock.bs", "implied_ttm"),
])
def test_clock_commands_call_traced_names(monkeypatch, capsys, command,
                                          module_name, attr):
    """The tracer times ``ttm`` and ``hedge`` through these module
    attributes (the implied-clock and hedge spans, and the ``bs_price``
    calls counted inside an inversion).  A command that bound the function
    under another name would leave those spans silently at 0."""
    targets = load_perfbench("spans")[0].TARGETS
    assert (module_name, attr) in {(m, a) for m, a, _, _ in targets}
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    assert main([command, "--nsteps", "200", "--out", "-"]) == 0
    capsys.readouterr()
    assert calls


def test_work_indices_name_the_grid_or_path_count():
    """A target with a work index reads its march grid (``MARCHES`` spans)
    or its path count from that positional argument.  A signature edit
    that shifted the parameter would leave the step or path counts
    silently at 0."""
    spans = load_perfbench("spans")[0]
    shifted = []
    for module_name, attr, span, work_index in spans.TARGETS:
        if work_index is None:
            continue
        fn = getattr(importlib.import_module(module_name), attr)
        names = list(inspect.signature(fn).parameters)
        want = "grid" if span in spans.MARCHES else "n_paths"
        if work_index >= len(names) or names[work_index] != want:
            shifted.append((module_name, attr, work_index, want))
    assert shifted == []
