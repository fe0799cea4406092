"""tools/compare.py end to end: a checkout compared with itself."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_checkout_compared_with_itself_differs_by_nothing():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare.py"), src, src,
         "--workload", "paired-r2", "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "workload paired-r2: 4 replicates x 1 rounds = 4 fits per checkout"
    assert lines[1].startswith("median CPU per fit: parent ") and " ratio " in lines[1]
    assert lines[2].startswith("change faster on ") and "/4 fits" in lines[2]
    assert lines[3] == "largest relative difference: estimates 0, std errors 0"
    quartiles = re.fullmatch(
        r"per-replicate CPU ratio: 25% (\d+\.\d{4}), 50% (\d+\.\d{4}), 75% (\d+\.\d{4})",
        lines[4],
    )
    assert quartiles
    q1, q2, q3 = map(float, quartiles.groups())
    assert 0 < q1 <= q2 <= q3
    assert lines[5] == "fits missing the reference: parent 0/4, change 0/4"
    assert len(lines) == 6


def test_all_workloads_print_six_lines_each():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare.py"), src, src,
         "--workload", "all", "--rounds", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 18
    assert [line.split(":")[0] for line in lines[::6]] == [
        "workload paired-r2", "workload car-mc", "workload cli-mc"
    ]
    assert lines[3::6] == ["largest relative difference: estimates 0, std errors 0"] * 3
    assert lines[5::6] == [
        f"fits missing the reference: parent 0/{n}, change 0/{n}" for n in (4, 24, 24)
    ]
