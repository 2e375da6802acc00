"""The narrative demos and README's Quick start run to completion.

Each runs as its own interpreter in a temporary working directory, since
demo 04 writes ``magnetic_slices.csv`` into the directory it runs in.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_script(path, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_all_four_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_script(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if demo.name.startswith("01"):
        # the 2-D divergence coefficient system, as numpy prints it
        assert "[[1 0 0 0]\n [0 1 1 0]\n [0 0 0 1]]" in proc.stdout
    if demo.name.startswith("04"):
        lines = (tmp_path / "magnetic_slices.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,x3,magnitude"
        assert len(lines) == 1 + 3 * 25 * 25


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"## Quick start\s+```python\n(.*?)```", readme, re.S)
    assert match, "README has no Quick start python block"
    script = tmp_path / "quick_start.py"
    script.write_text(match.group(1) + "assert result.means.shape == (1, 2)\n")
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
