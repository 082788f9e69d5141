"""Golden CLI transcript: every recorded command must print the same bytes.

``tests/data/cli_transcript.txt`` holds, for each command below and in both
output formats, the exit code, standard output and standard error that the
CLI printed when the transcript was recorded.  The test replays each command
in-process through ``cli.main`` and compares bytes, so any change of output
shows up as a diff against the file.  ``main`` reuses one parser per process,
so the whole transcript is also replayed in one process in reversed and in
shuffled order: a value that leaked from one call into the next would show.

The transcript is the one record of what the CLI prints.  To pin a command,
add a line to ``COMMANDS`` and record the transcript in a commit of its own,
before the change it guards: the bytes then come from the code as it was,
and the commit's diff only adds entries.  Otherwise re-record only when an
output change is intended.  Record from the repository root:

    PYTHONPATH=src python tests/test_cli_transcript.py --record

Commands whose arguments are too long to record (1 000-factor words, 4 300
digit integers) are checked in-process below with ``run_in_process``.
``tests/test_cli.py`` holds only the checks that need a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shlex
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

TRANSCRIPT = Path(__file__).resolve().parent / "data" / "cli_transcript.txt"

# Embedded base generators, as printed by ``encode 1``, ``encode 2``, ...,
# and the inverse of the first.
G1 = "f s f s^-1 f^-1 s f^-1 s^-1"
G2 = "f s^3 f s^-3 f^-1 s^3 f^-1 s^-3"
G3 = "f s^7 f s^-7 f^-1 s^7 f^-1 s^-7"
G5 = "f s^31 f s^-31 f^-1 s^31 f^-1 s^-31"
G1_INV = "s f s^-1 f s f^-1 s^-1 f^-1"
BIG = "1" + "0" * 30  # a 31-digit exponent

COMMANDS = [
    "normalize --group G 'f s f s^-1 f^-1 s^3'",
    "normalize --group L 'z b1 z^-1 b1^-1 z^2 b3^-2'",
    "normalize --group G 'f s f s^-1'",
    "normalize --group G 's^3'",
    "normalize --group G 'f f^-1'",
    "normalize --group L 'z b1 z^-1 b1^-1'",
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
    f"trivial --base re:mock --fuel 2 '{G1}'",
    "trivial --group L --base re:mock --fuel 0 ''",
    f"trivial --base re:mock --fuel 1 '{G2} {G1_INV}'",
    f"trivial --base re:mock --fuel 0 '{G2} {G1_INV}'",
    f"trivial --base re:mock --fuel 0 '{G2} {G1_INV} s'",
    f"trivial --base re:halting --fuel 64 '{G2} {G1_INV}'",
    "trivial --group L --base re:halting --fuel 3 'b4 b3^-1'",
    f"member --subgroup image '{G1}'",
    "member --subgroup image 'f'",
    "member --subgroup image 's^2'",
    f"member --subgroup image '{G3}'",
    "member --subgroup base 'f s f^-1 s^-1'",
    "member --subgroup base 's'",
    "member --group L --subgroup diagonal 'z b1 z^-1 b1^-1'",
    "member --group L --subgroup diagonal 'b1'",
    "member --group L --subgroup diagonal 'b2 z b2^-1 z^-1'",
    "member --group G --subgroup diagonal 'f'",
    f"member --base re:mock '{G1}'",
    "member --group L --subgroup diagonal --base re:mock b1",
    f"decode --base free-abelian '{G1} {G2} {G2}'",
    f"decode --base free-abelian '{G3}'",
    f"decode '{G5} {G2}'",
    f"decode --base insep:mock-odd-even '{G2} {G1_INV}'",
    "decode 'f'",
    f"decode --base re:halting '{G1}'",
    "compare --base free-abelian 'f' 's'",
    "compare --base free-abelian 'f' 's f s^-1'",
    f"compare --base insep:mock-odd-even '{G2}' '{G1}'",
    f"compare --base free-abelian '{G2} {G1}' '{G1} {G2}'",
    f"compare --base insep:mock-odd-even '{G2}' '{G1} {G1}'",
    f"compare --base free-abelian '{G2}' '{G1}'",
    "compare --base insep:mock-odd-even"
    " 's^2 f s f^-1 s^-8 f^-1 s^4 f^2 s^4 f s^-4 f^-2 s^3 f^-1 s^-7 f s^5' ''",
    "compare --base free-abelian 's^-5 f s^5' ''",
    "compare --base free-abelian '' 's^3 f s^-3 f^-1'",
    f"compare --base free-abelian 's^-{BIG} f s^{BIG}' ''",
    "compare 's f s^-1' 's f s^-1'",
    "compare --group L 'b1' 'z b1 z^-1'",
    "compare --group L 'b1 b2' 'b2 b1'",
    "compare --base re:mock 'f' 's'",
    "encode 1",
    "encode 2",
    "encode 3",
    "encode 5",
    "encode 0",
    "encode -3",
    "encode 200000",
    "demo theorem1 --max-n 50",
    "demo theorem1 --max-n 2",
    "demo theorem1 --max-n 4",
    "demo theorem1 --max-n 40",
    "demo theorem1 --pair mock-odd-even --max-n 6",
    "demo theorem2 --max-n 2 --fuel 8",
    "demo theorem2 --max-n 50 --fuel 100",
    "demo theorem2 --pair mock-odd-even --max-n 4 --fuel 8",
    "demo theorem2 --pair halting --max-n 10 --fuel 5000",
    "demo theorem2 --pair halting --max-n 1 --fuel 0",
    "demo theorem2 --pair mock-odd-even",
    "demo theorem2 --pair halting --max-n 6 --fuel 200",
    "normalize 'f^x'",
    "normalize --group L 'z q1'",
    "normalize --group L 'z b1 q2'",
    "normalize 'f q'",
    "trivial --fuel -1 'f'",
    "trivial --fuel -1 'f f^-1'",
    "trivial --fuel abc f",
    "trivial --base bogus f",
    "demo theorem2 --fuel -5",
    "demo theorem1 --max-n -4",
    "demo theorem2 --max-n -1",
    "demo theorem1 --max-n 1.5",
    "demo theorem1 --pair halting",
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


def long_words() -> dict[str, str]:
    """Products of 1 000 seeded factors ``z^e bi^x z^-e`` over ``--group L``:
    ``f``, a shuffle ``g`` of the same factors, and ``long``, which is ``f``
    followed by the inverse of ``g``."""
    r = random.Random(1)
    f = [(r.randint(1, 9), r.randint(-500, 500), r.choice((-1, 1))) for _ in range(1000)]
    g = f[:]
    r.shuffle(g)
    g_inverse = [(i, e, -x) for i, e, x in reversed(g)]

    def word(factors):
        return " ".join(f"z^{e} b{i}^{x} z^{-e}" for i, e, x in factors)

    return {"f": word(f), "g": word(g), "long": word(f + g_inverse)}


LONG = long_words()


@pytest.mark.parametrize(
    "argv, out",
    [
        (["trivial", "--group", "L", LONG["long"]], "TRIVIAL"),
        (["member", "--group", "L", "--subgroup", "diagonal", LONG["long"] + " z b3 z^-1 b3^-1"],
         "MEMBER"),
        (["member", "--group", "L", "--subgroup", "diagonal", LONG["long"] + " z b3 z^-1"],
         "NONMEMBER"),
        (["compare", "--group", "L", LONG["f"], LONG["g"]], "EQ clause=equal"),
        (["compare", "--group", "L", LONG["f"] + " b3", LONG["g"]], "GT clause=value point=1"),
    ],
    ids=["trivial", "member", "nonmember", "compare-eq", "compare-gt"],
)
def test_long_words(argv, out):
    assert run_in_process(argv) == (0, out + "\n", "")


NINES = "9" * 4300  # as many digits as Python prints by default


@pytest.mark.parametrize("output", ["text", "structured"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (("normalize", "--group", "L", "z b1^" + "1" * 4400), "column 3: index or exponent"),
        (("normalize", "--group", "L", f"z^{NINES} z^{NINES}"), "the result holds an integer"),
        (("normalize", "--group", "G", f"s^{NINES} s^{NINES}"), "the result holds an integer"),
        (("compare", "--group", "L", f"z^{NINES} z^{NINES} b1 z^-{NINES} z^-{NINES}", ""),
         "the result holds an integer"),
    ],
    ids=["parse", "normalize-L", "normalize-G", "compare-point"],
)
def test_integers_past_the_text_limit_fail_clearly(output, argv, message, int_text_limit):
    # The same 4300-digit bound whether Python's limit is at its default or off.
    code, out, err = run_in_process(["--output", output, *argv])
    assert code == 1
    assert out == ""
    assert err.startswith(f"wreathembed: error: {message}")
    assert "Exceeds the limit" not in err and "set_int_max_str" not in err


def test_encode_index_bound_is_exact(int_text_limit):
    # 2^14284 - 1 has 4300 digits; 2^14285 - 1 has 4301.
    code, out, err = run_in_process(["encode", "14284"])
    assert (code, err) == (0, "")
    assert len(out.split()[1]) == len("s^") + 4300
    assert run_in_process(["encode", "14285"]) == (
        1,
        "",
        "wreathembed: error: index 14285 is too large: the exponent 2^14285 - 1 "
        "would have more than 4300 decimal digits\n",
    )


def test_a_million_digit_exponent_fails_at_once(int_text_limit):
    # Each integer a command reads is bounded before it is converted, and the
    # message does not echo it.
    million = "9" * 10**6
    too_long = "integer has more than 4300 decimal digits"
    for argv, message in [
        (["normalize", "--group", "G", "s^" + million],
         "wreathembed: error: column 1: index or exponent has too many digits"),
        (["trivial", "--group", "L", "--fuel", million, ""],
         f"wreathembed trivial: error: argument --fuel: {too_long}"),
        (["demo", "theorem2", "--max-n", million],
         f"wreathembed demo theorem2: error: argument --max-n: {too_long}"),
        (["encode", million], f"wreathembed encode: error: argument index: {too_long}"),
    ]:
        start = time.perf_counter()
        code, out, err = run_in_process(argv)
        assert time.perf_counter() - start < 1, argv[:2]
        assert (code, out, err) == (1, "", message + "\n")
        assert len(err) < 200


def test_integer_argument_bound_is_exact(int_text_limit):
    # A sign is not counted, as in a word; the next digit is refused.
    nines = "9" * 4300
    for fuel in (nines, "+" + nines):
        assert run_in_process(["trivial", "--fuel", fuel, "f"]) == (0, "NONTRIVIAL\n", "")
    message = "wreathembed trivial: error: argument --fuel: integer has more than 4300 decimal digits"
    assert run_in_process(["trivial", "--fuel", nines + "9", "f"]) == (1, "", message + "\n")


@pytest.mark.parametrize(
    "argv, start, end",
    [
        (["trivial", "--fuel", "a" * 10**6, "f"],
         "wreathembed trivial: error: argument --fuel: invalid integer: 'aaa", "aaa'"),
        (["encode", "x" * 10**6], "wreathembed encode: error: argument index: invalid integer: 'xxx",
         "xxx'"),
        (["trivial", "--base", "q" * 10**6, "f"],
         "wreathembed trivial: error: argument --base: invalid choice: 'qqq",
         "(choose from 'free-abelian', 'insep:mock-odd-even', 'insep:halting', 're:mock', "
         "'re:halting')"),
        (["normalize", "--group", "G", "f^" + "9" * 10**6 + "x"],
         "wreathembed: error: column 1: malformed term 'f^999", "999x'"),
    ],
    ids=["fuel", "encode", "base", "term"],
)
def test_a_million_character_error_message_is_capped(argv, start, end, int_text_limit):
    # Both ends of a long message are kept, joined by "...".
    began = time.perf_counter()
    code, out, err = run_in_process(argv)
    assert time.perf_counter() - began < 1
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err) <= 600
    assert err.startswith(start) and err.endswith(end + "\n") and "..." in err


@pytest.mark.parametrize("text", ["1_000", " 5", "5 ", "\u0665"])
def test_integer_arguments_take_ascii_digits_only(text):
    # The integer grammar of a word: an optional sign, then ASCII digits.
    assert run_in_process(["trivial", "--fuel", text, "f"]) == (
        1, "", f"wreathembed trivial: error: argument --fuel: invalid integer: {text!r}\n"
    )
    assert run_in_process(["encode", text]) == (
        1, "", f"wreathembed encode: error: argument index: invalid integer: {text!r}\n"
    )


def test_integer_arguments_take_a_sign():
    assert run_in_process(["trivial", "--fuel", "+7", "f"]) == (0, "NONTRIVIAL\n", "")
    assert run_in_process(["encode", "+1"]) == (0, G1 + "\n", "")


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
