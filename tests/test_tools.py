import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _code_lines():
    return _tool("code_lines").code_lines


def test_code_lines_skip_comments_blank_lines_and_docstrings(tmp_path):
    # a string that is a whole statement is a docstring wherever it stands;
    # a string inside a statement counts on every line it spans
    module = tmp_path / "m.py"
    module.write_text('"""Module\ndocstring."""\n\n# a comment\nx = 1  # one\n\n\n'
                      'def f():\n    """Doc\n    string."""\n    return """two\nlines"""\n')
    assert _code_lines()(module) == 4


@pytest.mark.parametrize("name", ["missing.py", "--help"])
def test_code_lines_refuses_a_missing_path(name, tmp_path):
    # an existing path first: nothing is counted when one path is missing
    (tmp_path / "m.py").write_text("x = 1\n")
    run = subprocess.run([sys.executable, str(TOOLS / "code_lines.py"), "m.py", name],
                         cwd=tmp_path, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == f"error: {name}: no such file or directory\n"


def test_search_footprint_prints_each_budget_search(capsys):
    assert _tool("search_footprint").main(["--max-states", "500"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["identity", "mode", "states", "seconds", "states/s", "bytes/state"]
    assert len(rows) == 3
    for row in rows:
        states, seconds, per_second, per_state = row.split()[-4:]
        assert int(states) == 501 and float(seconds) > 0
        assert int(per_second) > 0 and int(per_state) > 0
