"""The command-line examples of README.md, run as written.

Every `$ starweyl ...` line inside a fenced block is one example: its
arguments go through cli.main in this process, and stdout must equal the
lines that follow it, up to the next `$ ` line or the end of the block. A
line that ends in "(stderr)" shows stderr and is skipped; a `#` starts a
comment in the command line, as in a shell.
"""

import os
import shlex

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_examples(text):
    """(argv, expected stdout) of each `$ starweyl` line of fenced blocks."""
    examples = []
    fenced = False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
            current = None
        elif fenced and line.startswith("$ "):
            argv = shlex.split(line[2:], comments=True)
            assert argv[0] == "starweyl", line
            current = [argv[1:], ""]
            examples.append(current)
        elif fenced and current is not None and not line.endswith("(stderr)"):
            current[1] += line + "\n"
    return [tuple(e) for e in examples]


with open(README, encoding="utf-8") as _fh:
    EXAMPLES = readme_examples(_fh.read())


def test_every_example_line_is_read():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    assert len(EXAMPLES) == text.count("\n$ starweyl ") > 0
    # the reader keeps the output lines and drops the stderr ones
    block = ("```\n$ starweyl verify star   # a comment\nline 1\n"
             "# done        (stderr)\n$ starweyl star p q\nq*p\n```\n"
             "$ starweyl outside\n")
    assert readme_examples(block) == [(["verify", "star"], "line 1\n"),
                                      (["star", "p", "q"], "q*p\n")]


@pytest.mark.parametrize("argv,expected", EXAMPLES,
                         ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example(argv, expected, capsys):
    from starweyl.cli import main

    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode() == expected.encode()
