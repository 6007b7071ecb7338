"""The benchmark's child process, run on a tiny workload: it fails as soon
as a name the benchmark wraps or patches is gone from the program."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TRACED_LAYERS = (
    "llm.draft.calls",
    "llm.feedback.calls",
    "evaluate.slot.calls",
    "bandit.select.calls",
    "bandit.reward.calls",
    "reporting.append.calls",
)


@pytest.mark.parametrize("trace", [False, True])
def test_bench_child_runs_a_tiny_workload(tmp_path, trace):
    # one lane: the closed world numbers identical prompts by arrival order
    spec = {
        "workload": "search_quality", "seeds": [1], "population": 4, "generations": 2,
        "lanes": 1, "log_bytes": 0, "malformed": 0.0, "unchanged": 0.0,
        "trace": trace, "check_records": True, "out": str(tmp_path),
    }
    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert result["runs"][0]["problems"] == []
    if trace:
        assert all(result["layers"].get(name, 0) > 0 for name in TRACED_LAYERS), result["layers"]
