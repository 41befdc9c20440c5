"""Smoke test of the benchmark: one checked command of every workload."""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_smoke_runs_every_workload_with_checks():
    proc = subprocess.run([sys.executable, RUN, "--smoke"], capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert (result["attempted"], result["failed"]) == (4, 0)
    for workload in ("absorb-ensemble", "pullback-cloud", "bounds-calibrate", "greedy-horizon"):
        for metric, unit in (("seeds_per_s", "seeds/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")):
            entry = result["metrics"][f"{workload}.{metric}"]
            assert entry["unit"] == unit and entry["value"] > 0
