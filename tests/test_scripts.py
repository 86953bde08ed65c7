"""Smoke tests of the scripts under scripts/."""
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_fast(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--fast"],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_inventory_fast():
    out = run_fast("run_inventory.py")
    search = re.search(r"^band search: .* cost=(\S+) \+- (\S+)$", out, re.M)
    oracle = re.search(r"^oracle at best band: cost=(\S+) \+- (\S+),", out, re.M)
    assert search and oracle, out
    # The search row and the oracle at that band are the same estimate.
    assert search.groups() == oracle.groups()


def test_refinement_study_fast():
    out = run_fast("refinement_study.py")
    tables = [block.splitlines() for block in out.strip().split("\n\n")]
    assert len(tables) == 3, out
    for title, header, *rows in tables:
        col = header.split().index("objective")
        values = [float(row.split()[col]) for row in rows]
        # Finer nested grids and larger fuel caps only enlarge the feasible set.
        assert len(values) >= 2 and values == sorted(values, reverse=True), title
        col = header.split().index("cols")
        cols = [int(row.split()[col]) for row in rows]
        assert cols == sorted(cols), title
