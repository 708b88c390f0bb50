"""The repository's pytest settings, checked from a fresh pytest run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    # filterwarnings = ["error"] must not turn a warning raised inside
    # the hypothesis plugin's report hook into an INTERNALERROR
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
