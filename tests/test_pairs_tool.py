"""tools/pairs.py: the claim-rule verdict on synthetic runs, and a checkout without a benchmark."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)

PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # IQR 0.2


def test_nine_of_ten_wins_with_a_clear_gap_pass():
    change = [8.0] * 9 + [11.0]
    v = pairs.verdict(PARENT, change, "lower", 0.25)
    assert v["won"] == 9 and v["pairs"] == 10
    assert v["claim"] and not v["worse"]


def test_eight_of_ten_wins_fail():
    change = [8.0] * 8 + [11.0, 11.0]
    v = pairs.verdict(PARENT, change, "lower", 0.25)
    assert v["won"] == 8 and not v["claim"]


def test_a_gap_inside_the_parents_iqr_fails():
    change = [p - 0.05 for p in PARENT]  # wins every pair by less than the IQR
    v = pairs.verdict(PARENT, change, "lower", 0.25)
    assert v["won"] == 10 and not v["claim"]


def test_higher_is_better_counts_the_other_way_and_ties_win_nothing():
    v = pairs.verdict(PARENT, [p + 1.0 for p in PARENT[:9]] + [PARENT[9]], "higher", 0.25)
    assert v["won"] == 9 and v["claim"]
    assert pairs.verdict(PARENT, PARENT, "higher", 0.25)["won"] == 0


def test_a_peak_rss_rise_beyond_five_percent_is_flagged():
    rss = [70.0 + 0.1 * k for k in range(10)]
    assert pairs.verdict(rss, [1.06 * r for r in rss], "lower", 0.05)["worse"]
    assert not pairs.verdict(rss, [1.04 * r for r in rss], "lower", 0.05)["worse"]


def test_a_checkout_without_run_py_gives_one_error_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairs.py"), str(tmp_path), str(ROOT),
         "--workload", "car-mc", "--pairs", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0] == f"error: no perfbench/run.py under {tmp_path}"


@pytest.mark.parametrize("cached", [("parent",), ("change",), ("parent", "change")])
def test_bytecode_caches_must_match(tmp_path, monkeypatch, capsys, cached):
    roots = {side: tmp_path / side for side in ("parent", "change")}
    for root in roots.values():
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("")
        (root / "src" / "mcglm").mkdir(parents=True)
    for side in cached:
        (roots[side] / "src" / "mcglm" / "__pycache__").mkdir()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    result = {"correct": True, "failed": 0, "attempted": 10,
              "metrics": {m["name"]: {"value": 1.0} for m in metrics}}
    monkeypatch.setattr(pairs, "run_bench", lambda *args: result)
    argv = [str(roots["parent"]), str(roots["change"]), "--workload", "cli-mc", "--pairs", "1"]
    code = pairs.main(argv)
    out, err = capsys.readouterr()
    if len(cached) == 2:
        assert code == 0 and err == "" and out.startswith("workload cli-mc:")
    else:
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: only the {cached[0]} checkout has __pycache__ "
                                    "under src/; setup_s needs matching bytecode caches"]


def test_workload_all_runs_every_workload_in_turn(tmp_path, monkeypatch, capsys):
    roots = [tmp_path / "parent", tmp_path / "change"]
    for root in roots:
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    calls = []

    def run_bench(root, workload, seed, seconds):
        calls.append((Path(root).name, workload, seed))
        value = 1.0 + workloads.index(workload) + (0.5 if Path(root).name == "change" else 0.0)
        return {"correct": True, "failed": 0, "attempted": 10,
                "metrics": {m["name"]: {"value": value} for m in metrics}}

    monkeypatch.setattr(pairs, "run_bench", run_bench)
    argv = [str(roots[0]), str(roots[1]), "--workload", "all", "--pairs", "2", "--seconds", "1"]
    assert pairs.main(argv) == 0
    assert calls == [(side, w, k) for w in workloads
                     for k, order in ((1, ("parent", "change")), (2, ("change", "parent")))
                     for side in order]
    blocks = capsys.readouterr().out.split("workload ")[1:]
    assert [b.split(":")[0] for b in blocks] == workloads
    for i, block in enumerate(blocks):
        assert f"parent {1.0 + i:g} [" in block and f"change {1.5 + i:g} [" in block
