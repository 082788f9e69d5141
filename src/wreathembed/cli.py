"""Command line interface.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a fueled
verdict comes back unknown.  Output is deterministic: identical invocations
produce identical bytes.  With ``--output structured`` every command prints
one JSON record per line instead of plain text.
"""

from __future__ import annotations

import argparse
import json
import sys

from wreathembed import reductions, twogen, wreath
from wreathembed.base_groups import (
    GroupOracle,
    free_abelian_oracle,
    halting_pair,
    insep_oracle,
    mock_pair,
    re_oracle,
)
from wreathembed.orders import (
    OrderOracle,
    fs_compare,
    lex_order,
    pair_adapted_order,
    zb_compare,
)
from wreathembed.words import FS_ALPHABET, ZB_ALPHABET, Word, WordError, parse_word, word_to_text

BASES = ("free-abelian", "insep:mock-odd-even", "insep:halting", "re:mock", "re:halting")
PAIRS = ("mock-odd-even", "halting")
HINTED_PAIRS = ("mock-odd-even",)  # theorem1 needs a membership hint


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """Argument type of ``--fuel`` and ``--max-n``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_base(selector: str) -> GroupOracle:
    if selector == "free-abelian":
        return free_abelian_oracle()
    if selector == "insep:mock-odd-even":
        return insep_oracle(mock_pair())
    if selector == "insep:halting":
        return insep_oracle(halting_pair())
    if selector == "re:mock":
        return re_oracle(mock_pair().enum_n, name="mock")
    if selector == "re:halting":
        return re_oracle(halting_pair().enum_n, name="halting")
    raise ValueError(f"unknown base selector {selector!r}")


def build_order(selector: str) -> tuple[GroupOracle, OrderOracle]:
    if selector == "free-abelian":
        return free_abelian_oracle(), lex_order()
    if selector == "insep:mock-odd-even":
        pair = mock_pair()
        return insep_oracle(pair), pair_adapted_order(pair)
    raise ValueError(f"no computable order is bundled for base {selector!r}")


def build_pair(selector: str):
    return mock_pair() if selector == "mock-odd-even" else halting_pair()


def _emit(args, record: dict, text: str) -> None:
    if args.output == "structured":
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _group_word(args) -> Word:
    alphabet = FS_ALPHABET if args.group == "G" else ZB_ALPHABET
    return parse_word(args.word, alphabet)


def cmd_normalize(args) -> int:
    word = _group_word(args)
    if args.group == "G":
        text = twogen.normal_form_text(twogen.from_word(word))
    else:
        text = wreath.normal_form_text(wreath.from_word(word))
    _emit(args, {"command": "normalize", "group": args.group, "normal_form": text}, text)
    return 0


def cmd_trivial(args) -> int:
    word = _group_word(args)
    base = build_base(args.base)
    if args.group == "G":
        verdict = twogen.semi_trivial(twogen.from_word(word), base, args.fuel)
    else:
        verdict = wreath.semi_trivial(wreath.from_word(word), base, args.fuel)
    name = "TRIVIAL" if verdict.trivial else "NONTRIVIAL" if verdict.nontrivial else "UNKNOWN"
    record = {"command": "trivial", "group": args.group, "base": args.base, "verdict": name}
    _emit(args, record, name)
    return 2 if name == "UNKNOWN" else 0


def cmd_member(args) -> int:
    word = _group_word(args)
    if args.group == "G":
        element = twogen.from_word(word)
        if args.subgroup == "base":
            member = twogen.in_base(element)
        elif args.subgroup == "image":
            member = twogen.in_image(element, build_base(args.base))
        else:
            raise ValueError("group G supports the subgroups 'image' and 'base'")
    else:
        if args.subgroup != "diagonal":
            raise ValueError("group L supports the subgroup 'diagonal'")
        member = wreath.in_diagonal(wreath.from_word(word), build_base(args.base))
    name = "MEMBER" if member else "NONMEMBER"
    record = {
        "command": "member",
        "group": args.group,
        "subgroup": args.subgroup,
        "base": args.base,
        "verdict": name,
    }
    _emit(args, record, name)
    return 0


def cmd_compare(args) -> int:
    base, order = build_order(args.base)
    alphabet = FS_ALPHABET if args.group == "G" else ZB_ALPHABET
    left = parse_word(args.left, alphabet)
    right = parse_word(args.right, alphabet)
    if args.group == "G":
        verdict, clause, point = fs_compare(
            twogen.from_word(left), twogen.from_word(right), order, base
        )
    else:
        verdict, clause, point = zb_compare(
            wreath.from_word(left), wreath.from_word(right), order, base
        )
    text = f"{verdict} clause={clause}" + (f" point={point}" if point is not None else "")
    record = {
        "command": "compare",
        "group": args.group,
        "base": args.base,
        "verdict": verdict,
        "clause": clause,
        "point": point,
    }
    _emit(args, record, text)
    return 0


def cmd_encode(args) -> int:
    # The word prints the exponent 2^index - 1 in decimal; refuse up front
    # what Python's integer-to-text limit would refuse halfway through.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.index > 0 and (args.index > 4 * limit or (1 << args.index) > 10**limit):
        raise ValueError(
            f"index {args.index} is too large: the exponent 2^{args.index} - 1 "
            f"would have more than {limit} decimal digits"
        )
    text = word_to_text(twogen.generator_word(args.index))
    _emit(args, {"command": "encode", "index": args.index, "word": text}, text)
    return 0


def cmd_decode(args) -> int:
    base = build_base(args.base)
    element = twogen.from_word(parse_word(args.word, FS_ALPHABET))
    decoded = word_to_text(twogen.decode(element, base))
    _emit(args, {"command": "decode", "base": args.base, "word": decoded}, decoded)
    return 0


def cmd_demo_theorem1(args) -> int:
    report = reductions.separation_report(build_pair(args.pair), args.max_n)
    if args.output == "structured":
        for entry in report.entries:
            print(
                json.dumps(
                    {
                        "n": entry.n,
                        "side": entry.side,
                        "separator": "in" if entry.separated else "out",
                        "sign_lo": entry.sign_lo,
                        "sign_hi": entry.sign_hi,
                        "ok": entry.consistent,
                    },
                    sort_keys=True,
                )
            )
        print(
            json.dumps(
                {
                    "entries": len(report.entries),
                    "pair": report.pair_name,
                    "violations": len(report.violations),
                },
                sort_keys=True,
            )
        )
    else:
        for line in reductions.report_lines(report):
            print(line)
    return 0


def cmd_demo_theorem2(args) -> int:
    pair = build_pair(args.pair)
    outcomes = []
    for n in range(1, args.max_n + 1):
        verdict = reductions.merge_probe(n, pair.enum_n, args.fuel)
        outcomes.append((n, "trivial" if verdict.trivial else "unknown"))
    confirmed = sum(1 for _, v in outcomes if v == "trivial")
    if args.output == "structured":
        for n, verdict in outcomes:
            print(json.dumps({"n": n, "verdict": verdict}, sort_keys=True))
        print(
            json.dumps(
                {
                    "confirmed": confirmed,
                    "fuel": args.fuel,
                    "pair": args.pair,
                    "probed": len(outcomes),
                    "unknown": len(outcomes) - confirmed,
                },
                sort_keys=True,
            )
        )
    else:
        for n, verdict in outcomes:
            print(f"n={n} verdict={verdict}")
        print(f"pair={args.pair}")
        print(f"probed={len(outcomes)} confirmed={confirmed} "
              f"unknown={len(outcomes) - confirmed} fuel={args.fuel}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="wreathembed", description=__doc__)
    parser.add_argument("--output", choices=("text", "structured"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add("normalize", cmd_normalize, help="print the normal form of a word")
    p.add_argument("--group", choices=("G", "L"), default="G")
    p.add_argument("word", nargs="?", default="")

    p = add("trivial", cmd_trivial, help="decide or semi-decide the word problem")
    p.add_argument("--group", choices=("G", "L"), default="G")
    p.add_argument("--base", choices=BASES, default="free-abelian")
    p.add_argument("--fuel", type=_count, default=64)
    p.add_argument("word", nargs="?", default="")

    p = add("member", cmd_member, help="decide subgroup membership")
    p.add_argument("--group", choices=("G", "L"), default="G")
    p.add_argument("--subgroup", choices=("image", "base", "diagonal"), default="image")
    p.add_argument("--base", choices=BASES, default="free-abelian")
    p.add_argument("word", nargs="?", default="")

    p = add("compare", cmd_compare, help="compare two words in the lifted order")
    p.add_argument("--group", choices=("G", "L"), default="G")
    p.add_argument("--base", choices=BASES, default="free-abelian")
    p.add_argument("left", nargs="?", default="")
    p.add_argument("right", nargs="?", default="")

    p = add("encode", cmd_encode, help="embed the i-th base generator")
    p.add_argument("index", type=int)

    p = add("decode", cmd_decode, help="recover a base word from its embedding")
    p.add_argument("--base", choices=BASES, default="free-abelian")
    p.add_argument("word", nargs="?", default="")

    p = add("demo", None, help="run a built-in demonstration")
    demo_sub = p.add_subparsers(dest="demo", required=True)
    p1 = demo_sub.add_parser("theorem1", help="order-based separation sweep")
    p1.set_defaults(handler=cmd_demo_theorem1)
    p1.add_argument("--pair", choices=HINTED_PAIRS, default="mock-odd-even")
    p1.add_argument("--max-n", type=_count, default=20)
    p2 = demo_sub.add_parser("theorem2", help="fueled membership probe sweep")
    p2.set_defaults(handler=cmd_demo_theorem2)
    p2.add_argument("--pair", choices=PAIRS, default="mock-odd-even")
    p2.add_argument("--max-n", type=_count, default=10)
    p2.add_argument("--fuel", type=_count, default=64)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (WordError, ValueError) as exc:
        print(f"wreathembed: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
