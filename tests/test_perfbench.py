"""One in-process pass of perfbench's library workloads, with every op checked.

Each op's result is checked against a closed-form oracle or the certificate,
so a failed op here is an incorrect output the benchmark would also report.
"""
import importlib
import pathlib
import random
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["pair-stiff", "swarm-sweep"])
def test_one_pass_has_no_failed_ops(workload, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
        workloads = importlib.import_module("workloads")
        runner = workloads.Runner()
        chosen = workloads.WORKLOADS[workload](random.Random(seed), str(tmp_path))
        chosen.run_pass(tracing.plain_api(), runner)
    finally:
        for name in ("tracing", "workloads", "proc"):
            sys.modules.pop(name, None)
    failed = [(r.kind, r.detail) for r in runner.records if not r.ok]
    assert runner.records
    assert failed == []
