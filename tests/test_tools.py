import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_code_lines_skip_comments_blank_lines_and_docstrings(tmp_path):
    # a string that is a whole statement is a docstring wherever it stands;
    # a string inside a statement counts on every line it spans
    module = tmp_path / "m.py"
    module.write_text('"""Module\ndocstring."""\n\n# a comment\nx = 1  # one\n\n\n'
                      'def f():\n    """Doc\n    string."""\n    return """two\nlines"""\n')
    assert _code_lines()(module) == 4
