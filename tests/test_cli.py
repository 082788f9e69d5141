"""End-to-end tests for the command line interface."""

import json
import subprocess
import sys

import pytest


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "wreathembed", *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize(
    "word, expected",
    [
        ("f s f s^-1", "[(0,1),(1,1)] ; 0"),
        ("s^3", "[] ; 3"),
        ("f f^-1", "[] ; 0"),
    ],
)
def test_normalize_two_generator(word, expected):
    result = run_cli("normalize", "--group", "G", word)
    assert result.returncode == 0
    assert result.stdout == expected + "\n"


def test_normalize_wreath_commutator():
    result = run_cli("normalize", "--group", "L", "z b1 z^-1 b1^-1")
    assert result.returncode == 0
    assert result.stdout == "[(1,1,1),(1,0,-1)] ; 0\n"


def test_trivial_commutator_is_nontrivial():
    result = run_cli("trivial", "--base", "free-abelian", "f s f^-1 s^-1")
    assert result.returncode == 0
    assert result.stdout == "NONTRIVIAL\n"


def test_trivial_identity_word():
    result = run_cli("trivial", "--base", "free-abelian", "s f s^-1 s f^-1 s^-1")
    assert result.returncode == 0
    assert result.stdout == "TRIVIAL\n"


def test_encode_first_generator():
    result = run_cli("encode", "1")
    assert result.returncode == 0
    assert result.stdout == "f s f s^-1 f^-1 s f^-1 s^-1\n"


def test_encode_decode_round_trip():
    encoded = run_cli("encode", "3").stdout.strip()
    member = run_cli("member", "--subgroup", "image", encoded)
    assert member.stdout == "MEMBER\n"
    decoded = run_cli("decode", "--base", "free-abelian", encoded)
    assert decoded.stdout == "x3\n"


def test_member_rejects_shift_power():
    result = run_cli("member", "--subgroup", "image", "s^2")
    assert result.returncode == 0
    assert result.stdout == "NONMEMBER\n"


def test_member_base_is_tail_check():
    assert run_cli("member", "--subgroup", "base", "f s f^-1 s^-1").stdout == "MEMBER\n"
    assert run_cli("member", "--subgroup", "base", "s").stdout == "NONMEMBER\n"


def test_member_diagonal_in_wreath_group():
    result = run_cli("member", "--group", "L", "--subgroup", "diagonal", "b2 z b2^-1 z^-1")
    assert result.returncode == 0
    assert result.stdout in {"MEMBER\n", "NONMEMBER\n"}


def test_compare_reports_clause():
    result = run_cli("compare", "--base", "free-abelian", "f", "s")
    assert result.returncode == 0
    verdict, clause = result.stdout.split()
    assert verdict in {"LT", "GT"}
    assert clause.startswith("clause=")


def test_compare_equal_words():
    result = run_cli("compare", "s f s^-1", "s f s^-1")
    assert result.stdout == "EQ clause=equal\n"


def test_compare_without_order_fails():
    result = run_cli("compare", "--base", "re:mock", "f", "s")
    assert result.returncode == 1
    assert "order" in result.stderr


def test_unknown_verdict_exits_two():
    result = run_cli("trivial", "--base", "re:mock", "--fuel", "2",
                     "f s f s^-1 f^-1 s f^-1 s^-1")
    assert result.returncode == 2
    assert result.stdout == "UNKNOWN\n"


def test_parse_error_exits_one():
    result = run_cli("normalize", "f q")
    assert result.returncode == 1
    assert "column 3" in result.stderr


def test_encode_rejects_index_past_integer_text_limit():
    result = run_cli("encode", "200000")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("wreathembed: error: index 200000 is too large")
    assert "Exceeds the limit" not in result.stderr
    assert run_cli("encode", "1000000000000").returncode == 1
    assert run_cli("encode", "-3").stderr.startswith("wreathembed: error: generator index")


NINES = "9" * 4300  # as many digits as Python prints by default


def assert_clear_error(result, message: str) -> None:
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith(f"wreathembed: error: {message}")
    assert "Exceeds the limit" not in result.stderr and "set_int_max_str" not in result.stderr


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
def test_integers_past_the_text_limit_fail_clearly(output, argv, message):
    assert_clear_error(run_cli("--output", output, *argv), message)


@pytest.mark.parametrize(
    "argv",
    [
        ("trivial", "--fuel", "-1", "f f^-1"),
        ("demo", "theorem2", "--fuel", "-5"),
        ("demo", "theorem1", "--max-n", "-4"),
        ("demo", "theorem2", "--max-n", "-1"),
    ],
    ids=["trivial-fuel", "theorem2-fuel", "theorem1-max-n", "theorem2-max-n"],
)
def test_negative_counts_are_usage_errors(argv):
    result = run_cli(*argv)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "must be non-negative" in result.stderr


def test_demo_theorem1_offers_only_pairs_with_a_hint():
    result = run_cli("demo", "theorem1", "--pair", "halting")
    assert result.returncode == 1
    assert "invalid choice: 'halting'" in result.stderr
    assert "has no membership hint" not in result.stderr
    theorem2 = run_cli("demo", "theorem2", "--pair", "halting", "--max-n", "1", "--fuel", "0")
    assert theorem2.returncode == 0


def test_wide_windows_decide_quickly():
    # Exponents of 10^7 and 10^8: one point per step point, not per integer.
    n = 10**7
    result = run_cli("trivial", "--group", "L", f"z^{n} b1 z^-{n} b1^-1 z^{n} b1^-1 z^-{n} b1")
    assert result.stdout == "TRIVIAL\n"
    n = 10**8
    result = run_cli("member", "--group", "L", "--subgroup", "diagonal", f"z^{n} b1 z^-{n} b1^-1")
    assert result.stdout == "NONMEMBER\n"


def test_bad_flag_exits_one():
    result = run_cli("trivial", "--base", "bogus", "f")
    assert result.returncode == 1


def test_structured_output_is_json_lines():
    result = run_cli("--output", "structured", "normalize", "--group", "G", "f s f s^-1")
    record = json.loads(result.stdout)
    assert record == {"command": "normalize", "group": "G", "normal_form": "[(0,1),(1,1)] ; 0"}


def test_structured_demo_emits_one_record_per_line():
    result = run_cli("--output", "structured", "demo", "theorem1", "--max-n", "4")
    lines = result.stdout.splitlines()
    assert len(lines) == 5
    records = [json.loads(line) for line in lines]
    assert records[-1]["violations"] == 0
    assert all(record["ok"] for record in records[:-1])


def test_demo_theorem1_text_report():
    result = run_cli("demo", "theorem1", "--pair", "mock-odd-even", "--max-n", "6")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "n=1 side=n separator=in sign_lo=+ sign_hi=+ ok=yes"
    assert "violations=0" in lines


def test_demo_theorem2_probe_sweep():
    result = run_cli("demo", "theorem2", "--pair", "mock-odd-even",
                     "--max-n", "4", "--fuel", "8")
    lines = result.stdout.splitlines()
    assert "n=1 verdict=trivial" in lines
    assert "n=2 verdict=unknown" in lines
    assert lines[-1] == "probed=4 confirmed=2 unknown=2 fuel=8"


def test_repeated_runs_are_byte_identical():
    args = ("demo", "theorem1", "--pair", "mock-odd-even", "--max-n", "8")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_help_exits_zero():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "normalize" in result.stdout
