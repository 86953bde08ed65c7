"""Smoke tests of the scripts under scripts/."""
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_run_inventory_fast():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_inventory.py"), "--fast"],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    search = re.search(r"^band search: .* cost=(\S+) \+- (\S+)$", proc.stdout, re.M)
    oracle = re.search(r"^oracle at best band: cost=(\S+) \+- (\S+),", proc.stdout, re.M)
    assert search and oracle, proc.stdout
    # The search row and the oracle at that band are the same estimate.
    assert search.groups() == oracle.groups()
