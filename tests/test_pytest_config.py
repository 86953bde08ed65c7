"""The suite's pytest configuration, run on a suite of its own."""
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_b_passing():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # Reporting a hypothesis failure must not raise an error that turns the
    # run into an INTERNALERROR: the tests after it still run.
    pytest.importorskip("hypothesis")
    (tmp_path / "test_props.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_props.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
