"""The suite's own pytest settings, read from pyproject.toml."""

import subprocess
import sys

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != 0
"""


def test_a_failing_hypothesis_test_is_reported_as_one_failure(
        tmp_path, pytestconfig):
    # on a failure the hypothesis plugin imports libcst, whose
    # DeprecationWarning, made an error, would end the run as an
    # INTERNALERROR (exit 3) in place of the failure
    filters = "".join(
        f"    {f}\n" for f in pytestconfig.getini("filterwarnings"))
    (tmp_path / "pytest.ini").write_text(
        f"[pytest]\nfilterwarnings =\n{filters}")
    (tmp_path / "test_one.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q",
         "test_one.py"], cwd=tmp_path, capture_output=True, text=True,
        timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
