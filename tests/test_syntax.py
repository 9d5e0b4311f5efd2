"""Every Python file of the project parses as the oldest Python that
pyproject.toml's requires-python admits, though a newer one runs the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE_DIRS = ("src", "tests", "perfbench", "scripts", "demos")


def test_every_python_file_parses_as_the_oldest_supported_python():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    minor = int(re.search(r'requires-python = ">=3\.(\d+)"', pyproject).group(1))
    paths = sorted(path for name in SOURCE_DIRS for path in (ROOT / name).rglob("*.py"))
    assert len(paths) >= 30
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, minor))
        except SyntaxError as err:
            failures.append(f"{path.relative_to(ROOT)}:{err.lineno}: {err.msg}")
    assert not failures, failures
