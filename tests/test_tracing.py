"""perfbench's tracer patches names in the package; `--trace 1` breaks if one goes."""
import importlib
import pathlib
import sys

import pytest

import cbolab.analysis as analysis
import cbolab.cli as cli
import cbolab.dynamics as dynamics

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracing")
    sys.modules.pop("tracing", None)


def test_instrument_patches_and_undo_restores(tracing):
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
    assert ("cbolab.dynamics", "softmax_weights") in patched
    assert ("cbolab.analysis", "simulate") in patched
    for names, now in zip(before, after):
        assert now.keys() == names.keys()
        assert all(now[name] is value for name, value in names.items())


def test_simulate_formats_its_trajectory_through_a_traced_name(tracing, tmp_path, capsys):
    cfg = tmp_path / "sim.ini"
    cfg.write_text("[objective]\nname = linear\n[sim]\nlambda = 1\nalpha = 10\npositions = 0 1\n")
    tracer = tracing.Tracer()
    api, undo = tracing.instrument(tracer)
    try:
        assert api.cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    finally:
        undo()
    names = [span["name"] for span in tracer.spans]
    assert names.count("cli.format") == 1
    assert names.count("dynamics.simulate") == 1
