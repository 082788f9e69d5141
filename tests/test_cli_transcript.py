"""Golden CLI transcript: every recorded command must print the same bytes.

``tests/data/cli_transcript.txt`` holds, for each command below and in both
output formats, the exit code, standard output and standard error that the
CLI printed when the transcript was recorded.  The test replays each command
in-process through ``cli.main`` and compares bytes, so any change of output
shows up as a diff against the file.  ``main`` reuses one parser per process,
so the whole transcript is also replayed in one process in reversed and in
shuffled order: a value that leaked from one call into the next would show.

Re-record (only when an output change is intended) from the repository root:

    PYTHONPATH=src python tests/test_cli_transcript.py --record
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shlex
import sys
from pathlib import Path
from unittest import mock

import pytest

TRANSCRIPT = Path(__file__).resolve().parent / "data" / "cli_transcript.txt"

# Embedded base generators, as printed by ``encode 1`` / ``encode 2``, and
# the inverse of the first.
G1 = "f s f s^-1 f^-1 s f^-1 s^-1"
G2 = "f s^3 f s^-3 f^-1 s^3 f^-1 s^-3"
G1_INV = "s f s^-1 f s f^-1 s^-1 f^-1"

COMMANDS = [
    "normalize --group G 'f s f s^-1 f^-1 s^3'",
    "normalize --group L 'z b1 z^-1 b1^-1 z^2 b3^-2'",
    "normalize",
    "trivial --base free-abelian 'f s f^-1 s^-1'",
    "trivial --base free-abelian 's f s^-1 s f^-1 s^-1'",
    "trivial --group L --base free-abelian 'z b1 z^-1 b1^-1 b1 z b1^-1 z^-1'",
    "trivial --group L --base insep:mock-odd-even 'b2 b1^-2'",
    "trivial --group L --base insep:mock-odd-even 'b2 b1^-1'",
    f"trivial --base insep:mock-odd-even '{G2} {G1_INV} {G1_INV}'",
    "trivial --group L --base insep:halting 'b2 b1^-2 z'",
    "trivial --group L --base insep:halting 'b2 b1^-1'",
    "trivial --group L --base re:mock --fuel 5 'b2 b1^-1'",
    "trivial --group L --base re:mock --fuel 0 'b2 b1^-1'",
    "trivial --group L --base re:mock --fuel 0 ''",
    f"trivial --base re:mock --fuel 1 '{G2} {G1_INV}'",
    f"trivial --base re:mock --fuel 0 '{G2} {G1_INV}'",
    f"trivial --base re:mock --fuel 0 '{G2} {G1_INV} s'",
    f"trivial --base re:halting --fuel 64 '{G2} {G1_INV}'",
    "trivial --group L --base re:halting --fuel 3 'b4 b3^-1'",
    f"member --subgroup image '{G1}'",
    "member --subgroup image 'f'",
    "member --subgroup base 'f s f^-1 s^-1'",
    "member --subgroup base 's'",
    "member --group L --subgroup diagonal 'z b1 z^-1 b1^-1'",
    "member --group L --subgroup diagonal 'b1'",
    "member --group G --subgroup diagonal 'f'",
    f"decode --base free-abelian '{G1} {G2} {G2}'",
    f"decode --base insep:mock-odd-even '{G2} {G1_INV}'",
    "decode 'f'",
    "compare --base free-abelian 'f' 's'",
    "compare --base free-abelian 'f' 's f s^-1'",
    f"compare --base insep:mock-odd-even '{G2}' '{G1}'",
    "compare --group L 'b1' 'z b1 z^-1'",
    "compare --group L 'b1 b2' 'b2 b1'",
    "compare --base re:mock 'f' 's'",
    "encode 1",
    "encode 5",
    "encode 0",
    "demo theorem1 --max-n 50",
    "demo theorem2 --pair mock-odd-even",
    "demo theorem2 --pair halting --max-n 6 --fuel 200",
    "normalize 'f^x'",
    "normalize --group L 'z q1'",
    "trivial --fuel -1 'f'",
    "trivial --group L --base re:mock 'b254 b253^-1'",
    "trivial --group L --base re:mock --fuel 63 'b254 b253^-1'",
    "member 'f'",
    "member --group L --subgroup image 'b1'",
    "demo",
    "demo theorem1",
    "--help",
    "trivial --help",
    "compare --help",
    "demo --help",
    "demo theorem2 --help",
]


def argv_list() -> list[list[str]]:
    return [
        ["--output", output, *shlex.split(command)]
        for command in COMMANDS
        for output in ("text", "structured")
    ]


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    from wreathembed import cli

    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),  # argparse wraps help to the width
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _block(label: str, text: str) -> list[str]:
    if text and not text.endswith("\n"):
        raise ValueError(f"{label} does not end with a newline: {text!r}")
    return [label] + ["| " + line for line in text.splitlines()]


def render(argv: list[str], code: int, out: str, err: str) -> str:
    lines = ["$ " + shlex.join(argv), f"exit {code}", *_block("stdout", out), *_block("stderr", err)]
    return "\n".join(lines) + "\n"


def parse_transcript(text: str) -> list[tuple[list[str], int, str, str]]:
    """The recorded (argv, exit code, stdout, stderr) entries, in order."""
    lines = text.splitlines()
    starts = [k for k, line in enumerate(lines) if line.startswith("$ ")]
    entries = []
    for start, stop in zip(starts, starts[1:] + [len(lines)]):
        argv = shlex.split(lines[start][2:])
        code = int(lines[start + 1].removeprefix("exit "))
        at = lines.index("stderr", start)
        out = "".join(line[2:] + "\n" for line in lines[start + 3 : at])
        err = "".join(line[2:] + "\n" for line in lines[at + 1 : stop])
        entries.append((argv, code, out, err))
    return entries


ENTRIES = parse_transcript(TRANSCRIPT.read_text()) if TRANSCRIPT.exists() else []


def test_transcript_covers_every_command():
    assert [argv for argv, *_ in ENTRIES] == argv_list()
    codes = {code for _, code, _, _ in ENTRIES}
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("argv, code, out, err", ENTRIES, ids=[shlex.join(e[0]) for e in ENTRIES])
def test_cli_output_matches_transcript(argv, code, out, err):
    assert run_in_process(argv) == (code, out, err)


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_replay_in_one_process_in_any_order(order):
    """``main`` shares one parser between calls; no call may leak into the
    next.  Reversed, ``trivial ... --fuel 63 'b254 b253^-1'`` runs just
    before the same command at the default fuel, whose verdict differs."""
    if order == "reversed":
        entries = ENTRIES[::-1]
    else:
        entries = random.Random(20261018).sample(ENTRIES, len(ENTRIES))
    replayed = [(argv, *run_in_process(argv)) for argv, *_ in entries]
    assert replayed == entries


def test_main_builds_its_parser_once(monkeypatch):
    from wreathembed import cli

    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert run_in_process(["--output", "structured", "encode", "1"])[0] == 0
    assert built  # the first call builds the parser and its subparsers
    built.clear()
    assert run_in_process(["encode", "1"]) == (0, G1 + "\n", "")  # default output again
    assert run_in_process(["trivial", "--fuel", "3", "f"])[0] == 0
    assert run_in_process(["demo", "theorem2", "--max-n", "2"])[0] == 0
    assert run_in_process(["--help"])[0] == 0
    assert built == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_transcript.py --record")
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text("".join(render(argv, *run_in_process(argv)) for argv in argv_list()))
