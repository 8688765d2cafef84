"""README examples run as written and print what their comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(section: str) -> str:
    text = README.read_text()
    body = text[text.index(f"## {section}\n"):]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_python_api_example_prints_its_comments(capsys):
    code = python_block("Python API")
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) == 3
