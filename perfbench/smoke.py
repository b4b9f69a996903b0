"""Seconds-long self-test of the benchmark at the tiny scale.

    python3 perfbench/smoke.py

Runs every workload untraced and traced at ``--scale tiny`` on the pinned
seed. Each run must exit 0 with every op correct, and print every metric
BENCHMARK.json names, with its unit. Each workload then runs once more
against a copy of pinned.json whose digests are corrupted, and its ops must
count as failed. Exits 1 with a message on the first broken expectation.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "0.5"


def run(workload: str, trace: int, pinned: Path | None = None) -> tuple[int, dict]:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--scale", "tiny",
        "--seed", "0", "--seconds", SECONDS, "--trace", str(trace),
    ]
    if pinned is not None:
        argv += ["--pinned", str(pinned)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output; stderr: {proc.stderr.strip()[-500:]}")
    return proc.returncode, json.loads(lines[-1])


def corrupt(value):
    if isinstance(value, dict):
        return {key: corrupt(inner) for key, inner in value.items()}
    return "0" * len(value) if value else value


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pinned = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = {key: value for key, value in pinned.items() if key != "tiny"}
    bad["tiny"] = {
        name: {**entry, "digests": corrupt(entry["digests"])}
        for name, entry in pinned["tiny"].items()
    }
    bad_path = ROOT / ".perfbench_work" / "smoke-corrupted-pinned.json"
    bad_path.parent.mkdir(exist_ok=True)
    bad_path.write_text(json.dumps(bad), encoding="utf-8")
    try:
        for entry in spec["workloads"]:
            name = entry["name"]
            for trace in (0, 1):
                code, result = run(name, trace)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if code != 0 or not result["correct"] or result["failed"] or result["attempted"] < 1:
                    raise AssertionError(f"{name} trace={trace}: not all ops correct: {result}")
                if units != wanted[trace]:
                    raise AssertionError(f"{name} trace={trace}: metrics {units} != {wanted[trace]}")
                print(f"ok  {name} trace={trace}: {result['attempted']} ops, {len(units)} metrics")
            code, result = run(name, 0, bad_path)
            if code != 1 or result["correct"] or result["failed"] < 1:
                raise AssertionError(f"{name}: corrupted digests did not fail any op: {result}")
            print(f"ok  {name} corrupted digests: {result['failed']} of {result['attempted']} ops failed")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        bad_path.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
