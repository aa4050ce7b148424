"""The benchmark's own tests: tiny-input smoke runs of every workload,
metric names against ``BENCHMARK.json``, and failure counting.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

from perfbench import workloads as wl  # noqa: E402
from perfbench.inputs import prepare  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402
from perfbench.traced import PER_LAYER  # noqa: E402

TINY = 120_000


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, trace: int, *extra: str) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace), "--corpus-bytes", str(TINY), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    return prepare(str(tmp_path_factory.mktemp("inputs")), 7, TINY, 1)


def test_benchmark_json_lists_the_code_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    with open(os.path.join(ROOT, "perfbench", "spec.json")) as fh:
        detail = json.load(fh)
    assert set(detail["per_layer"]) == set(PER_LAYER)
    assert set(detail["workloads"]) == set(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_untraced(workload):
    stdout, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    for name in END_TO_END:
        assert name in stdout  # printed by name, with its unit
    assert result["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_traced(workload):
    stdout, result = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert "self time by layer" in stdout
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "gunzip":
        assert values["crc.bytes"] == TINY and values["sync.searches"] == 0
    elif workload == "pugz_parallel":
        assert values["executor.map_calls"] >= 1 and values["crc.bytes"] == 0
        assert values["scaling.speedup"] > 0 and values["scaling.model_speedup"] > 0
        assert "where the model and the code disagree" in stdout
    else:
        assert values["index_build.checkpoints"] >= 1 and values["zran.read_at_calls"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        src = os.path.join(ROOT, "perfbench", name)
        if os.path.isfile(src):
            (tmp_path / "perfbench" / name).write_bytes(open(src, "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gunzip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "correct" not in proc.stdout


def test_corrupted_reference_counts_as_failed(tiny):
    with open(tiny.plain_path, "rb") as fh:
        plain = bytearray(fh.read())
    plain[len(plain) // 2] ^= 0xFF
    items = wl.whole_inputs(tiny, bytes(plain))
    state, _ = wl.setup("gunzip", tiny.gz_path, "")
    tally = wl.Tally()
    raw, norm, _ = wl.measure_whole(state, items, 0.05, tally)
    assert raw == norm == [] and tally.attempted >= 1 and tally.failed == tally.attempted


def test_corrupted_reference_counts_as_failed_on_seek(tiny, tmp_path):
    with open(tiny.plain_path, "rb") as fh:
        bad = bytes(b ^ 0xFF for b in fh.read())
    state, _ = wl.setup("seek_mixed", tiny.gz_path, str(tmp_path))
    tally = wl.Tally()
    raw, norm = wl.measure_seek(state, bad, 3, 0.05, tally)
    assert raw == norm == {"point": [], "scan": []}
    assert tally.attempted >= 1 and tally.failed == tally.attempted


def test_exception_counts_as_failed(tiny, tmp_path):
    with open(tiny.plain_path, "rb") as fh:
        item = wl.whole_inputs(tiny, fh.read())[0]
    broken = tmp_path / "broken.gz"
    broken.write_bytes(open(item.gz_path, "rb").read()[:-100])
    state, _ = wl.setup("gunzip", tiny.gz_path, "")
    tally = wl.Tally()
    assert wl.whole_op(state, wl.WholeFileInput(str(broken), item.usize, item.reference,
                                                item.gzip_digest), tally) is None
    assert tally.failed == tally.attempted == 1 and tally.errors


def test_whole_file_inputs_step_through_one_block(tmp_path):
    inputs = prepare(str(tmp_path), 3, TINY, *wl.FILES["pugz_parallel"])
    with open(inputs.plain_path, "rb") as fh:
        items = wl.whole_inputs(inputs, fh.read())
    assert len(items) == 4 and len({i.gzip_digest for i in items}) == 4
    assert [i.usize for i in items] == list(inputs.sizes)


def test_seek_stream_is_seeded():
    a = [op for op, _ in zip(wl.seek_ops(5, 10**6), range(50))]
    b = [op for op, _ in zip(wl.seek_ops(5, 10**6), range(50))]
    c = [op for op, _ in zip(wl.seek_ops(6, 10**6), range(50))]
    assert a == b != c
    assert all(0 <= off <= 10**6 - wl.READ_SIZE for _, off in a)
