"""Property test: every command form ends in a clean report or one error line.

Each example runs one of the ten command forms through `cli.main` in
process, with option values drawn from ranges that include negative ones
and input files made by mutating the demo texts token by token.  Exit 0
and 1 print a report that ends in the matching status line and nothing
on stderr; exit 2 prints exactly one `error: ` line on stderr.

Runs when the optional test extra (hypothesis) is installed.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from twinwidth.cli import main  # noqa: E402

DEMOS = {
    "demo.cnf": "c demo\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n",
    "nae.cnf": ("p cnf 7 8\n1 -2 3 0\n-1 4 5 0\n2 -3 6 0\n1 6 -7 0\n"
                "4 5 7 0\n2 4 -6 0\n-1 -5 7 0\n3 -6 -7 0\n"),
    "p4.tgf": "tgf 4 3 0\nb 1 2\nb 2 3\nb 3 4\n",
    "p4.seq": "seq 4 3\nm 1 2\nm 3 4\nm 1 3\n",
}
# Mutations work on whole tokens and join them with spaces, so no number
# grows past the demos' 8 or a single digit: every CNF has at most 9
# variables (sat and nae take no budget) and every graph at most 9 vertices.
TOKEN = st.sampled_from(["p", "cnf", "tgf", "seq", "b", "r", "m", "c", "#", "-", "\n",
                         *"0123456789"])
BUDGET = st.integers(-3, 10_000)


@st.composite
def mutated(draw, text):
    tokens = re.findall(r"\S+|\n", text)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(tokens)))
        op = draw(st.sampled_from(["delete", "insert", "replace"]))
        if op == "insert":
            tokens.insert(at, draw(TOKEN))
        elif at < len(tokens):
            if op == "delete":
                del tokens[at]
            else:
                tokens[at] = draw(TOKEN)
    return " ".join(tokens)


def _option(draw, flag, values):
    return [flag, str(draw(values))] if draw(st.booleans()) else []


def _outputs(draw, *flags):
    """Each output flag or not, writing to a file named after it."""
    return [arg for flag in flags if draw(st.booleans()) for arg in (flag, f"out.{flag[2:]}")]


REDUCE_OUTPUTS = ("--graph", "--sequence", "--roles")
# argv of each command form, given a draw and the CNF file's name; a
# roundtrip always gets a budget, because its default is 20 million
FORMS = {
    "reduce mincol": lambda draw, cnf: ["reduce", "mincol", cnf, *_outputs(draw, *REDUCE_OUTPUTS)],
    "reduce 3col": lambda draw, cnf: ["reduce", "3col", cnf, *_outputs(draw, *REDUCE_OUTPUTS)],
    "reduce 3col --k": lambda draw, cnf: ["reduce", "3col", cnf, "--k", str(draw(st.integers(-2, 70))),
                                          *_outputs(draw, *REDUCE_OUTPUTS)],
    "verify-sequence": lambda draw, cnf: ["verify-sequence", "p4.tgf", "p4.seq",
                                          "--max-width", str(draw(st.integers(-2, 6)))],
    "tww-exact": lambda draw, cnf: ["tww-exact", "p4.tgf", *_option(draw, "--budget", BUDGET),
                                    *_outputs(draw, "--witness")],
    "chromatic": lambda draw, cnf: ["chromatic", "p4.tgf", *_option(draw, "--budget", BUDGET),
                                    *_outputs(draw, "--coloring")],
    "sat": lambda draw, cnf: ["sat", cnf, *_outputs(draw, "--assignment")],
    "nae": lambda draw, cnf: ["nae", cnf, *_outputs(draw, "--assignment")],
    "roundtrip --mincol": lambda draw, cnf: ["roundtrip", "--mincol", cnf, "--budget", str(draw(BUDGET))],
    "roundtrip --3col": lambda draw, cnf: ["roundtrip", "--3col", cnf, "--budget", str(draw(BUDGET))],
}


@st.composite
def invocations(draw):
    """(argv naming files in a scratch directory, {file name: text})."""
    form = FORMS[draw(st.sampled_from(sorted(FORMS)))]
    argv = form(draw, draw(st.sampled_from(["demo.cnf", "nae.cnf"])))
    return argv, {name: draw(mutated(text)) for name, text in DEMOS.items()}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_every_command_exits_cleanly(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in files.items():
            Path(scratch, name).write_text(text)
        # every file name has a dot, and no other argument does
        code, out, err = _run([str(Path(scratch, arg)) if "." in arg else arg for arg in argv])
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert out == ""
    else:
        assert err == ""
        assert out.endswith("status: ok\n" if code == 0 else "status: FAILED\n"), out
