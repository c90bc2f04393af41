"""Smoke test of the benchmark at toy sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import argparse
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.import_package()

import spans  # noqa: E402
from amplasso import amp, harness, scalar_risk, state_evolution  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Every end-to-end metric the benchmark defines, gated or printed only.
PRINTED = {"setup_s": "s", "cells_per_s": "1/s", "op_s_p50": "s", "op_s_p90": "s",
           "peak_rss_mb": "MB", "failed_frac": "ratio"}
PRINTED_BY_WORKLOAD = {"risk_sweep": {"risk_rel_dev_max": "ratio"},
                       "lasso_certificate": {"kkt_gap_rel_max": "ratio"}}


def toy_args(name: str, trace: int) -> argparse.Namespace:
    return argparse.Namespace(workload=name, seed=3, seconds=1.0, trace=trace)


def assert_identical(before: dict, after: dict) -> None:
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit(name, capsys):
    toy = workloads.WORKLOADS[name].toy()
    result = run.measure(toy, toy_args(name, 0), setup_s=1.0)
    text = capsys.readouterr().out
    gated = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == gated
    for metric, unit in {**PRINTED, **gated, **PRINTED_BY_WORKLOAD.get(name, {})}.items():
        assert re.search(rf"^  {re.escape(metric)} = \S+ {re.escape(unit)}\b", text, re.M), metric

    before = spans.bindings()
    result = run.measure_traced(toy, toy_args(name, 1))
    assert_identical(before, spans.bindings())
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layer
    assert result["metrics"]["trace.attribution_err"]["value"] < 1e-6
    assert result["correct"], capsys.readouterr().out


def test_wrappers_replace_every_binding_and_restore():
    originals = (amp.amp_step, scalar_risk.soft_threshold, state_evolution.lasso_risk)
    before = spans.bindings()
    with spans.Tracer():
        assert harness.amp_step.__wrapped__ is originals[0]
        assert amp.soft_threshold.__wrapped__ is originals[1]
        assert harness.soft_threshold.__wrapped__ is originals[1]
        assert harness.se.lasso_risk.__wrapped__ is originals[2]
        assert not [key for key, value in spans.bindings().items()
                    if any(value is original for original in originals)]
    assert_identical(before, spans.bindings())


def test_perturbed_x_hat_fails_the_certificate(monkeypatch):
    toy = workloads.WORKLOADS["lasso_certificate"].toy()
    assert toy.op(5).failed == 0
    solve = amp.amp_run

    def perturbed(*args, **kwargs):
        res = solve(*args, **kwargs)
        return dataclasses.replace(res, x_hat=1.01 * res.x_hat)

    monkeypatch.setattr(amp, "amp_run", perturbed)
    assert toy.op(5).failed == 1


def test_perturbed_mse_fails_the_risk_check():
    toy = workloads.WORKLOADS["risk_sweep"].toy()
    results = [toy.op(base) for base in range(6)]
    assert toy.finish(results).failed == 0
    for r in results:
        for cell in r.data[0]:
            cell["mse"] *= 3.0
    assert toy.finish(results).failed == sum(r.cells for r in results)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "risk_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
