"""The test-only references raise ``AssertionError`` themselves, so their
checks still run under ``python -O``, which strips the ``assert``
statements of every module pytest does not rewrite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def run_optimized(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` under ``python -O`` in the tests directory."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    return subprocess.run([sys.executable, "-O", "-c", code], cwd=TESTS, env=env,
                          capture_output=True, text=True, timeout=120)


def test_optimized_python_strips_asserts():
    """The control: under ``-O`` a bare ``assert`` checks nothing."""
    assert run_optimized("assert False").returncode == 0


@pytest.mark.parametrize("code", [
    "from parse_reference import assert_same_parse; assert_same_parse(1, 'x')",
    "from parse_reference import assert_same_parse; assert_same_parse(['a'], ['b'])",
    "from agree import GR, Graph; from pushout_reference import _checked; "
    "_checked(GR, Graph.build(['a']), Graph.build(['b']), {}, {})",
], ids=["parse type", "parse errors", "pushout leg"])
def test_reference_checks_fail_under_optimized_python(code):
    result = run_optimized(code)
    assert result.returncode != 0
    assert "AssertionError" in result.stderr
