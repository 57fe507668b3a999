"""perfbench's tracer patches names in the package; `--trace 1` breaks if one goes."""
import importlib
import pathlib
import sys

import cbolab.analysis as analysis
import cbolab.cli as cli
import cbolab.dynamics as dynamics

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_instrument_patches_and_undo_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
        modules = (analysis, cli, dynamics)
        before = [dict(vars(m)) for m in modules]
        _, undo = tracing.instrument(tracing.Tracer())
        patched = [
            (m.__name__, name)
            for m, names in zip(modules, before)
            for name, value in names.items()
            if getattr(m, name) is not value
        ]
        undo()
        after = [dict(vars(m)) for m in modules]
    finally:
        sys.modules.pop("tracing", None)
    assert ("cbolab.dynamics", "softmax_weights") in patched
    assert ("cbolab.analysis", "simulate") in patched
    for names, now in zip(before, after):
        assert now.keys() == names.keys()
        assert all(now[name] is value for name, value in names.items())
