"""The README's command-line and library examples run as documented."""

import ast
import shlex
from pathlib import Path

from pinnacles.cli import EXIT_OK, run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading: str, language: str = "") -> str:
    """The first fenced block after ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_cli_block(capsys):
    lines = [line for line in code_block("## Command line").splitlines()
             if line.startswith("pinnacles ")]
    assert len(lines) == 10
    for line in lines:
        command, _, comment = line.partition("#")
        code = run(shlex.split(command)[1:])
        captured = capsys.readouterr()
        out, comment = captured.out, comment.strip()
        assert code == EXIT_OK and captured.err == "", line
        # a comment that shows output is checked against it; the rest describe the call
        if comment == "admissible, prints a witness":
            assert out.startswith("admissible\nwitness: xi^"), line
        elif comment.startswith("header "):
            assert out.splitlines()[0] == comment.removeprefix("header "), line
        elif comment[:1].isdigit() or comment.startswith(("xi^", "inadmissible: ")):
            assert out == f"{comment}\n", line


def test_library_block():
    block = code_block("## Library", "python")
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(source, namespace)
            continue
        # the comment gives the value, optionally followed by ", explanation"
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        value = str(eval(source, namespace))
        assert comment == value or comment.startswith(f"{value}, "), source
        checked += 1
    assert checked == 6
