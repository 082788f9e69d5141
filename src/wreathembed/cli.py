"""Command line interface.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a fueled
verdict comes back unknown.  Output is deterministic: identical invocations
produce identical bytes.  With ``--output structured`` every command prints
one JSON record per line instead of plain text.

Each ``cmd_*`` handler returns (exit code, records, text lines): the records
are what ``--output structured`` prints, one JSON object per line, and the
text lines are what plain text prints.  ``main`` alone writes standard output.
It builds the parser once per process, on its first call, and reuses it; the
parser holds no per-call state, since every parse fills a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import namedtuple

from wreathembed import reductions, twogen, wreath
from wreathembed.base_groups import (
    free_abelian_oracle,
    halting_pair,
    insep_oracle,
    mock_pair,
    re_oracle,
)
from wreathembed.orders import fs_compare, lex_order, pair_adapted_order, zb_compare
from wreathembed.words import FS_ALPHABET, ZB_ALPHABET, WordError, parse_word, word_to_text

# One table per selector flag, mapping each choice, in the order ``--help``
# lists it, to a factory.  A factory looks its callee up when it is called,
# so a function patched on this module after import is the one that runs.
BASES = {
    "free-abelian": lambda: free_abelian_oracle(),
    "insep:mock-odd-even": lambda: insep_oracle(mock_pair()),
    "insep:halting": lambda: insep_oracle(halting_pair()),
    "re:mock": lambda: re_oracle(mock_pair().enum_n, name="mock"),
    "re:halting": lambda: re_oracle(halting_pair().enum_n, name="halting"),
}
ORDERS = {  # the bases of BASES with a bundled computable order
    "free-abelian": lambda: lex_order(),
    "insep:mock-odd-even": lambda: pair_adapted_order(mock_pair()),
}
PAIRS = {
    "mock-odd-even": lambda: mock_pair(),
    "halting": lambda: halting_pair(),
}
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


# Arguments that several commands take, each declared once, and ``member
# --subgroup``, kept here so that ``--help`` lists it between two of them.
ARGUMENTS = {
    "--group": {"choices": ("G", "L"), "default": "G"},
    "--subgroup": {"choices": ("image", "base", "diagonal"), "default": "image"},
    "--base": {"choices": tuple(BASES), "default": "free-abelian"},
    "--fuel": {"type": _count, "default": 64},
    "word": {"nargs": "?", "default": ""},
}


def _printed(render, *args) -> str:
    """``render(*args)``, failing clearly on an integer too long to print.

    Rendering a valid result raises ValueError only when one of its
    integers has more decimal digits than Python's integer-to-text limit.
    """
    try:
        return render(*args)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"the result holds an integer of more than {limit} decimal digits, too long to print"
        ) from None


# A group as the commands see it: its stage module, its word alphabet, the
# lifted order's comparison and, by subgroup name, the membership decider
# ``(element, base) -> bool`` of each subgroup it offers.
_Group = namedtuple("_Group", "stage alphabet compare subgroups")


def _group(name: str) -> _Group:
    """Group G or L, as ``--group`` selects it."""
    if name == "G":
        subgroups = {"image": twogen.in_image, "base": lambda a, _: twogen.in_base(a)}
        return _Group(twogen, FS_ALPHABET, fs_compare, subgroups)
    return _Group(wreath, ZB_ALPHABET, zb_compare, {"diagonal": wreath.in_diagonal})


def _element(args, text: str):
    """The normal form of a word of the selected group."""
    group = _group(args.group)
    return group.stage.from_word(parse_word(text, group.alphabet))


def cmd_normalize(args):
    text = _printed(_element(args, args.word).normal_form_text)
    return 0, [{"command": "normalize", "group": args.group, "normal_form": text}], [text]


def cmd_trivial(args):
    element = _element(args, args.word)
    verdict = _group(args.group).stage.semi_trivial(element, BASES[args.base](), args.fuel)
    name = "TRIVIAL" if verdict.trivial else "NONTRIVIAL" if verdict.nontrivial else "UNKNOWN"
    record = {"command": "trivial", "group": args.group, "base": args.base, "verdict": name}
    return 2 if name == "UNKNOWN" else 0, [record], [name]


def cmd_member(args):
    element = _element(args, args.word)
    subgroups = _group(args.group).subgroups
    if args.subgroup not in subgroups:
        noun = "subgroups" if len(subgroups) > 1 else "subgroup"
        names = " and ".join(f"'{subgroup}'" for subgroup in subgroups)
        raise ValueError(f"group {args.group} supports the {noun} {names}")
    name = "MEMBER" if subgroups[args.subgroup](element, BASES[args.base]()) else "NONMEMBER"
    record = {"command": "member", "group": args.group, "subgroup": args.subgroup,
              "base": args.base, "verdict": name}
    return 0, [record], [name]


def cmd_compare(args):
    if args.base not in ORDERS:
        raise ValueError(f"no computable order is bundled for base {args.base!r}")
    base, order = BASES[args.base](), ORDERS[args.base]()
    left, right = _element(args, args.left), _element(args, args.right)
    verdict, clause, point = _group(args.group).compare(left, right, order, base)
    text = f"{verdict} clause={clause}" + ("" if point is None else " point=" + _printed(str, point))
    record = {"command": "compare", "group": args.group, "base": args.base,
              "verdict": verdict, "clause": clause, "point": point}
    return 0, [record], [text]


def cmd_encode(args):
    # The word prints the exponent 2^index - 1 in decimal; refuse up front
    # what Python's integer-to-text limit would refuse halfway through.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.index > 0 and (args.index > 4 * limit or (1 << args.index) > 10**limit):
        raise ValueError(
            f"index {args.index} is too large: the exponent 2^{args.index} - 1 "
            f"would have more than {limit} decimal digits"
        )
    text = word_to_text(twogen.generator_word(args.index))
    return 0, [{"command": "encode", "index": args.index, "word": text}], [text]


def cmd_decode(args):
    base = BASES[args.base]()
    element = twogen.from_word(parse_word(args.word, FS_ALPHABET))
    decoded = _printed(word_to_text, twogen.decode(element, base))
    return 0, [{"command": "decode", "base": args.base, "word": decoded}], [decoded]


def cmd_demo_theorem1(args):
    report = reductions.separation_report(PAIRS[args.pair](), args.max_n)
    records = [
        {"n": e.n, "side": e.side, "separator": "in" if e.separated else "out",
         "sign_lo": e.sign_lo, "sign_hi": e.sign_hi, "ok": e.consistent}
        for e in report.entries
    ]
    records.append({"entries": len(report.entries), "pair": report.pair_name,
                    "violations": len(report.violations)})
    return 0, records, reductions.report_lines(report)


def cmd_demo_theorem2(args):
    pair = PAIRS[args.pair]()
    verdicts = [
        "trivial" if reductions.merge_probe(n, pair.enum_n, args.fuel).trivial else "unknown"
        for n in range(1, args.max_n + 1)
    ]
    probed, confirmed = len(verdicts), verdicts.count("trivial")
    records = [{"n": n, "verdict": verdict} for n, verdict in enumerate(verdicts, 1)]
    records.append({"confirmed": confirmed, "fuel": args.fuel, "pair": args.pair,
                    "probed": probed, "unknown": probed - confirmed})
    lines = [f"n={n} verdict={verdict}" for n, verdict in enumerate(verdicts, 1)]
    lines.append(f"pair={args.pair}")
    lines.append(f"probed={probed} confirmed={confirmed} "
                 f"unknown={probed - confirmed} fuel={args.fuel}")
    return 0, records, lines


@functools.cache
def build_parser() -> _Parser:
    # Built on the first ``main`` call, not at import, so importing stays
    # cheap.  Every caller gets this one parser; none may modify it.
    # --help shows the module docstring up to its last paragraph, which is
    # for readers of this module.
    parser = _Parser(prog="wreathembed", description=__doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--output", choices=("text", "structured"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name: str, handler, help: str, *shared: str) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for argument in shared:
            p.add_argument(argument, **ARGUMENTS[argument])
        return p

    add(sub, "normalize", cmd_normalize, "print the normal form of a word", "--group", "word")
    add(sub, "trivial", cmd_trivial, "decide or semi-decide the word problem",
        "--group", "--base", "--fuel", "word")
    add(sub, "member", cmd_member, "decide subgroup membership",
        "--group", "--subgroup", "--base", "word")
    p = add(sub, "compare", cmd_compare, "compare two words in the lifted order",
            "--group", "--base")
    p.add_argument("left", nargs="?", default="")
    p.add_argument("right", nargs="?", default="")
    p = add(sub, "encode", cmd_encode, "embed the i-th base generator")
    p.add_argument("index", type=int)
    add(sub, "decode", cmd_decode, "recover a base word from its embedding", "--base", "word")

    p = add(sub, "demo", None, "run a built-in demonstration")
    demo = p.add_subparsers(dest="demo", required=True)
    p = add(demo, "theorem1", cmd_demo_theorem1, "order-based separation sweep")
    p.add_argument("--pair", choices=HINTED_PAIRS, default="mock-odd-even")
    p.add_argument("--max-n", type=_count, default=20)
    p = add(demo, "theorem2", cmd_demo_theorem2, "fueled membership probe sweep")
    p.add_argument("--pair", choices=tuple(PAIRS), default="mock-odd-even")
    p.add_argument("--max-n", type=_count, default=10)
    p.add_argument("--fuel", **ARGUMENTS["--fuel"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, records, lines = args.handler(args)
        if args.output == "structured":
            lines = [json.dumps(record, sort_keys=True) for record in records]
        print("\n".join(lines))
        return code
    except (WordError, ValueError) as exc:
        print(f"wreathembed: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
