"""CLI outputs are byte-identical on numpy's default SIMD path and on its
baseline path, selected at run time by setting NPY_DISABLE_CPU_FEATURES to
every target that numpy dispatches to.

dsd and minkowski distances are not portable at the last ulp: numpy's
AVX512 power and root differ by 1 ulp from its AVX2 and baseline ones on
some inputs. No output holds a distance, and the outputs match as long as
no decision falls within that ulp of a tie. numpy's AVX2 and baseline
paths computed the same values in every case tried, so on a host without
AVX512 the test checks little.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = [
    ["gen", "--classes", "4", "--count", "600", "--seed", "5", "-o", "mat.csv"],
    ["fit", "-i", "mat.csv", "-o", "dsd", "--metric", "dsd", "--p", "1.523", "--k", "4"],
    ["fit", "-i", "mat.csv", "-o", "minkowski", "--metric", "minkowski", "--p", "1.5", "--k", "4"],
    ["compare", "-i", "mat.csv", "-o", "compare", "--k", "4", "--instances", "300", "600",
     "--jobs", "1"],
]


def run_commands(folder: Path, disabled: str) -> dict:
    """Run COMMANDS in folder; the bytes of every file written, by its path
    under folder, with sweep.json's wall times taken out."""
    folder.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    for args in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "matclust.cli", *args], cwd=folder, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    files = {
        str(path.relative_to(folder)): path.read_bytes()
        for path in folder.rglob("*")
        if path.is_file()
    }
    doc = json.loads(files["compare/sweep.json"])
    for row in doc["rows"]:
        del row["wall_ms"]
    files["compare/sweep.json"] = json.dumps(doc).encode()
    return files


@pytest.mark.skipif(not __cpu_dispatch__, reason="numpy dispatches to no SIMD target")
def test_outputs_match_on_the_baseline_path(tmp_path):
    default = run_commands(tmp_path / "default", "")
    baseline = run_commands(tmp_path / "baseline", " ".join(__cpu_dispatch__))
    assert len(default) == 18
    assert baseline == default
