"""Smoke test of the benchmark itself, on tiny 32 px frames.

    python3 -m pytest tamperbench/test_smoke.py -q

It records its own two-seed reference at 32 px, then checks that every
workload prints every metric BENCHMARK.json names, with its unit, in both
modes; that a corrupted reference drives failed_frac above 0; that another
seed changes the inputs but not the metric names; and that the benchmark
refuses to run without the package sources next to it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [wl["name"] for wl in SPEC["workloads"]]
SIZE = "32"


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("ref") / "reference.json"
    subprocess.run(
        [sys.executable, str(HERE / "record.py"), "--seeds", "2", "--size", SIZE, "--out", str(path)],
        cwd=ROOT,
        check=True,
        capture_output=True,
        timeout=300,
    )
    return path


def _run(workload, reference, seed=0, trace=0):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--size", SIZE, "--reference", str(reference)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_named_metric_with_its_unit(workload, trace, kind, reference):
    proc = _run(workload, reference, trace=trace)
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace == 0:
        kind_prefix = "train" if workload.startswith("train") else "infer"
        for label in ("setup_s", "peak_rss_mib", "failed_frac", kind_prefix + "_"):
            assert label in proc.stdout


@pytest.mark.parametrize("field", [0, 1], ids=["probability_sum", "index_weighted_sum"])
def test_corrupted_reference_counts_failures(reference, tmp_path, field):
    doc = json.loads(reference.read_text())
    for entry in doc.values():
        for per_seed in entry["seeds"]:
            for i, value in enumerate(per_seed):
                if isinstance(value, list):
                    value[field] *= 1.001  # a checked figure of a frame
                else:
                    per_seed[i] = value * 1.001  # loss of a step
    bad = tmp_path / "corrupted.json"
    bad.write_text(json.dumps(doc))
    for workload in WORKLOADS:
        proc = _run(workload, bad)
        result = _result(proc)
        assert not result["correct"] and result["failed"] >= 1
        frac = float(re.search(r"failed_frac\s+([0-9.]+)", proc.stdout).group(1))
        assert frac > 0


def test_other_seed_changes_inputs_not_metric_names(reference):
    probe = (
        "import hashlib, sys, workloads as w\n"
        "wl = w.WORKLOADS[sys.argv[1]]\n"
        "for seed in (0, 1):\n"
        "    work = w.fresh_workdir('seed-probe')\n"
        "    state = w.set_up(wl, 32, seed, work, 0, warm=False)\n"
        "    print(hashlib.sha256(state.items[0][1].data.tobytes()).hexdigest())\n"
        "    w.shutil.rmtree(work)\n"
    )
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, "-c", probe, workload], cwd=HERE, capture_output=True, text=True, check=True
        ).stdout.split()
        assert out[0] != out[1]
        names = [set(_result(_run(workload, reference, seed=s))["metrics"]) for s in (0, 1)]
        assert names[0] == names[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
