"""README examples run as written and print what their comments say."""

import argparse
import re
from pathlib import Path

from lshaped.aggregation import _parse_params, parse_scheme, scheme_label
from lshaped.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def section_text(section: str) -> str:
    """The README section under ``## section``, up to the next ``## ``."""
    text = README.read_text()
    return text[text.index(f"## {section}\n"):].split("\n## ")[0]


def python_block(section: str) -> str:
    return re.search(r"```python\n(.*?)```", section_text(section), re.S).group(1)


def test_python_api_example_prints_its_comments(capsys):
    code = python_block("Python API")
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) == 3


def test_command_line_section_names_only_existing_flags():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        option
        for parser in subparsers.choices.values()
        for action in parser._actions
        for option in action.option_strings
    }
    flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section_text("Command line")))
    assert {"--input", "--scheme", "--seed", "--sweep"} <= flags
    assert flags - options == set()


def test_strategy_grammar_table_parses_and_round_trips():
    text = README.read_text()
    table = text[text.index("### Strategy grammar\n"):].split("\n\n")[1]
    rows = re.findall(r"^\| `([^`]+)` +\|([^|]*)\|", table, re.M)
    assert len(rows) == 7
    for text, defaults in rows:
        scheme = parse_scheme(text)
        assert parse_scheme(scheme_label(scheme)) == scheme, text
        # every parameter's documented default, and only those, give the
        # label of the bare name
        name = text.partition(":")[0]
        label = scheme_label(parse_scheme(name))
        documented = re.findall(r"`([^`=]+)=([^`]+)`", defaults)
        assert [key for key, _ in documented] == list(_parse_params(label.partition(":")[2]))
        for key, value in documented:
            assert scheme_label(parse_scheme(f"{name}:{key}={value}")) == label, (name, key)
