"""The command's output contract, end to end in a fresh process."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args) -> tuple[int, list]:
    done = subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


@pytest.mark.parametrize("workload, trace, section", [
    ("exact-n8", "0", "end_to_end"),
    ("fig1-panels", "1", "per_layer"),
])
def test_last_line_carries_every_metric(workload, trace, section):
    code, lines = run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert code == 0
    env = json.loads(lines[-2])["env"]
    assert env["nproc"] >= 1 and env["numpy"] and env["scipy"] and "thread_vars" in env
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[section]}
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
