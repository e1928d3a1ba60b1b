"""The README's examples run: the library tour prints the values its
comments show, and every command line it lists exits 0."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from partition_diamonds.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def fenced_block(heading, language):
    """The first ```language block under the `## heading` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


TOUR = fenced_block("Library tour", "python")
COMMANDS = [shlex.split(line, comments=True)[1:]
            for line in fenced_block("Command line", "sh").splitlines()
            if line.startswith("pdiamonds ")]


def test_library_tour_shows_what_it_computes():
    # each bare expression is followed, on its line or the next, by a
    # comment that starts with the repr of its value
    lines = TOUR.splitlines()
    namespace, shown = {}, []
    for statement in ast.parse(TOUR).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README", "exec"),
                 namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README",
                             "eval"), namespace)
        after = lines[statement.end_lineno - 1][statement.end_col_offset:]
        if "#" not in after:
            after = lines[statement.end_lineno]
        comment = after.split("#", 1)[1].strip()
        text = repr(value)
        assert comment == text or comment.startswith((text + ",",
                                                      text + ":")), \
            (ast.unparse(statement), text, comment)
        shown.append(value)
    assert shown == [(1, 4, 13, 36, 90, 208), 13, True,
                     "verified_up_to_bounds", [(5, 2), (5, 3), (5, 4)]]


@pytest.mark.parametrize("argv", COMMANDS, ids=map(" ".join, COMMANDS))
def test_command_line_example_exits_0(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            code = main(argv)
        except SystemExit as exit_:  # --help exits from the parser
            code = exit_.code
    assert code == 0
    assert out.getvalue()


def test_the_readme_lists_its_commands():
    assert len(COMMANDS) == 11
