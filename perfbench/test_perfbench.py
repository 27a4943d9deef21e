"""Self-tests of the benchmark, on tiny inputs.

Run with ``python -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args):
    """Run the benchmark on tiny inputs; its stdout lines."""
    env = {k: v for k, v in os.environ.items() if k != "CRYSTAL_SEED"}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--size", "tiny", "--seconds", "0.3",
         *args],
        capture_output=True, text=True, env=env, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def metric_lines(lines):
    """name -> (value, unit) as printed in the lines before the result."""
    return {f[0]: (float(f[1]), f[2]) for f in (line.split() for line in lines[:-1])
            if len(f) >= 3 and f[0][0].isalpha() and f[0] not in ("meta", "FAILED")}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_every_metric_with_its_unit(workload, trace, group):
    lines = bench("--workload", workload, "--trace", str(trace))
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    if not trace:
        want["fail_ratio"] = "1"
    assert {name: unit for name, (_, unit) in metric_lines(lines).items()} == want


def test_corrupted_reference_digest_fails_the_case(tmp_path):
    ref = tmp_path / "reference.json"
    bench("--workload", "balls", "--record", "--reference", str(ref))
    digests = json.loads(ref.read_text())
    first = workloads.WORKLOADS["balls"].cases(0, 1, tiny=True)[0].key
    assert first in digests
    digests[first] = "0" * 20
    ref.write_text(json.dumps(digests))
    lines = bench("--workload", "balls", "--reference", str(ref))
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert metric_lines(lines)["fail_ratio"][0] > 0
    assert any("differs from the recorded reference" in line for line in lines)


def test_counted_runs_repeat_exactly():
    names = layers.COUNTS + list(layers.WORK_SIZES)
    runs = [json.loads(bench("--workload", "bridge-wide", "--trace", "1", "--seed", "3")[-1])
            for _ in range(2)]
    first, second = ({n: r["metrics"][n]["value"] for n in names} for r in runs)
    assert first == second
    assert first["paths.path_apply_calls"] > 0


def test_missing_hooked_name_stops_the_traced_run():
    hooks = layers.PIPELINE_HOOKS + (("iso", "no_such_stage", "iso.gone"),)
    with pytest.raises(layers.HookError, match="iso.no_such_stage"):
        with layers.hooked(layers.Tracer(), hooks):
            pass
    from affine_crystals import iso
    assert not hasattr(iso.path_to_walls, "__wrapped__")
