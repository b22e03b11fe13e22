"""Smoke test of the benchmark itself (not collected by the repository's pytest run).

Runs a one-second profile of every workload, untraced and traced, and checks
that the result line names every metric of ``BENCHMARK.json`` with its unit
and reports correct frames.  Then it perturbs one served frame by a single
bit and checks that the byte-for-byte frame check catches it.

    python3 perfbench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_profile(workload: str, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_profiles() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, units in expected.items():
            result = run_profile(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert got == units, f"{workload} trace={trace}: {set(got) ^ set(units)}"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, metric)
            print(f"ok {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} frames")


def check_perturbed_frame() -> None:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.make("popular-cached", seed=7)
    try:
        workload.setup()
        frames = workload.run(0.5)["frames"]
        mismatches, _ = workloads.verify(workload, frames)
        assert not mismatches, mismatches
        victim = frames[len(frames) // 2]
        image = victim["image"].copy()
        image.view("uint8").reshape(-1)[0] ^= 1  # one bit of one pixel
        victim["image"] = image
        mismatches, _ = workloads.verify(workload, frames)
        assert len(mismatches) == 1 and victim["id"] in mismatches[0], mismatches
        assert victim["ok"] is False
        print(f"ok perturbed frame caught: {mismatches[0]}")
    finally:
        workload.close()


if __name__ == "__main__":
    check_perturbed_frame()
    check_profiles()
    print("smoke test passed")
