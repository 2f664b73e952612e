"""Smoke runs of the scripts under scripts/, each in a subprocess with
PYTHONPATH=src and a fresh working directory."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(tmp_path, name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout.splitlines()


def test_merle_table(tmp_path):
    header, rule, *rows = run_script(tmp_path, "merle_table.py",
                                     "--max-b0", "3", "--max-last", "7")
    assert header.startswith("semigroup") and set(rule) == {"-"}
    assert rows[0].startswith("<2,3>") and len(rows) == 6
    assert all(row.endswith(" ok") for row in rows)


def test_bs_family_writes_the_overlay(tmp_path):
    header, *rows, wrote = run_script(tmp_path, "bs_family.py", "--max-beta", "7", "--svg", "4")
    assert header.split()[0] == "beta" and wrote == "wrote bs_4.svg"
    assert [row.split()[0] for row in rows] == ["4", "7"]
    assert all(row.endswith(" yes") for row in rows)
    svg = (tmp_path / "bs_4.svg").read_text()
    # the labels the script passes to render_svg name both polygons
    assert "<svg" in svg and ">special</text>" in svg and ">generic</text>" in svg


def test_jacobian_demo(tmp_path):
    lines = run_script(tmp_path, "jacobian_demo.py", "y^3 - x^7")
    assert lines[0] == "y^3 - x^7" and "[all identities hold]" in lines[1]
