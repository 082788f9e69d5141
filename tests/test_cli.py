"""Command-line checks that need a fresh interpreter.

What the CLI prints is pinned by the golden transcript, which
``tests/test_cli_transcript.py`` replays in-process.  The checks here start
``python -m wreathembed`` because a new process is the point: the module
entry and its exit codes, output that stays byte-identical across processes
(each with its own hash seed), an interpreter whose integer-to-text limit is
off, and the hang guards, which a timeout bounds.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli_transcript import run_in_process
from wreathembed import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*args: str, timeout: float = 60, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "wreathembed", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "1"],
        ["trivial", "--group", "L", "--base", "re:mock", "--fuel", "0", "b2 b1^-1"],
        ["normalize", "--group", "L", "z b1 q2"],
    ],
    ids=["exit-0", "exit-2", "exit-1"],
)
def test_module_entry_prints_what_main_prints(argv):
    result = run_cli(*argv)
    assert (result.returncode, result.stdout, result.stderr) == run_in_process(argv)


def test_repeated_runs_are_byte_identical():
    args = ("demo", "theorem1", "--pair", "mock-odd-even", "--max-n", "8")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_encode_bounds_the_index_when_the_integer_text_limit_is_off():
    # With the limit off (0), encode bounds the index by Python's default of 4300 digits.
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "0"}
    result = run_cli("encode", "3000000", timeout=10, env=env)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        "wreathembed: error: index 3000000 is too large: the exponent 2^3000000 - 1 "
        "would have more than 4300 decimal digits\n"
    )
    expected = run_in_process(["encode", "14000"])
    assert run_cli("encode", "14000", timeout=10, env=env).stdout == expected[1] != ""


def test_encode_rejects_a_huge_index_at_once():
    result = run_cli("encode", "1000000000000", timeout=10)
    assert result.returncode == 1
    assert result.stderr.startswith("wreathembed: error: index 1000000000000 is too large")


def test_wide_windows_decide_quickly():
    # Exponents of 10^7 and 10^8: one point per step point, not per integer.
    n = 10**7
    word = f"z^{n} b1 z^-{n} b1^-1 z^{n} b1^-1 z^-{n} b1"
    assert run_cli("trivial", "--group", "L", word, timeout=10).stdout == "TRIVIAL\n"
    n = 10**8
    result = run_cli("member", "--group", "L", "--subgroup", "diagonal", f"z^{n} b1 z^-{n} b1^-1",
                     timeout=10)
    assert result.stdout == "NONMEMBER\n"


@pytest.mark.parametrize(
    "args, expected",
    [
        # A lone letter far out: only its own coordinate pair is visited.
        (("compare", "--group", "L", "--base", "insep:mock-odd-even", "b1000001", ""),
         "GT clause=value point=1"),
        (("compare", "--group", "L", "--base", "insep:mock-odd-even", "b200000", ""),
         "LT clause=value point=1"),
        # A huge exponent on one letter of a pair is no relator multiple.
        (("trivial", "--group", "L", "--base", "insep:mock-odd-even", "b1^100000000"),
         "NONTRIVIAL"),
        # A huge composite exponent ratio names no prime.
        (("trivial", "--group", "L", "--base", "insep:mock-odd-even", "b2 b1^-1000000000000"),
         "NONTRIVIAL"),
    ],
)
def test_pair_glued_base_with_large_index_or_exponent(args, expected):
    result = run_cli(*args, timeout=10)
    assert result.returncode == 0
    assert result.stdout == expected + "\n"


def test_readme_command_line_examples(capsys):
    # Each "$ wreathembed ..." line of the fenced block under "## Command
    # line", with the output line that follows it, if any (a prompt stands
    # in after the block's last line).
    block = README.read_text().split("## Command line", 1)[1].split("```\n")[1]
    lines = block.splitlines()
    shown = 0
    for line, following in zip(lines, [*lines[1:], "$ "]):
        if not line.startswith("$ wreathembed "):
            continue
        assert cli.main(shlex.split(line)[2:]) == 0, line
        out = capsys.readouterr().out
        if not following.startswith("$ "):
            assert out == following + "\n", line
            shown += 1
    assert (shown, sum(line.startswith("$ ") for line in lines)) == (7, 9)
