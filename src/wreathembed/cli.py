"""Command line interface.

Exit codes: 0 on success, 1 on usage or input errors, 2 when ``trivial``
answers UNKNOWN; ``demo theorem2`` counts its unknown probes and exits 0.
Output is deterministic: identical invocations produce identical bytes.  With
``--output structured`` every command prints one JSON record per line instead
of plain text.

Each ``cmd_*`` handler returns (exit code, records, text lines): the records
are what ``--output structured`` prints, one JSON object per line, and the
text lines are what plain text prints; the demo sweeps render each text line
from its record.  ``main`` alone writes standard output.  It builds the parser
once per process, on its first call, and reuses it; the parser holds no
per-call state, since every parse fills a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
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
from wreathembed.words import _too_long, int_text, max_digits, parse_word, word_to_text

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


# The most characters of an error message the CLI prints.  A longer message
# keeps both ends, so that argparse's "(choose from ...)" list still shows.
_MESSAGE_CAP = 500


def _capped(message: str) -> str:
    half = (_MESSAGE_CAP - 3) // 2
    return message if len(message) <= _MESSAGE_CAP else f"{message[:half]}...{message[-half:]}"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {_capped(message)}\n")


def _integer(text: str) -> int:
    """Argument type of ``encode``'s index: an integer in ASCII digits, as in a word, of
    at most ``max_digits()`` digits, counted before ``int`` reads them, so that a longer
    one is refused at once, unechoed."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    if _too_long(text):
        raise argparse.ArgumentTypeError(f"integer has more than {max_digits()} decimal digits")
    return int(text)


def _count(text: str) -> int:
    """Argument type of ``--fuel`` and ``--max-n``: a non-negative :func:`_integer`."""
    value = _integer(text)
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


# A group as the commands see it: its stage module, its element class, the
# lifted order's comparison and, by subgroup name, the membership decider
# ``(element, base) -> bool`` of each subgroup it offers.
_Group = namedtuple("_Group", "stage element compare subgroups")


def _group(name: str) -> _Group:
    """Group G or L, as ``--group`` selects it."""
    if name == "G":
        subgroups = {"image": twogen.in_image, "base": lambda a, _: twogen.in_base(a)}
        return _Group(twogen, twogen.FSElement, fs_compare, subgroups)
    return _Group(wreath, wreath.ZBElement, zb_compare, {"diagonal": wreath.in_diagonal})


def _element(args, text: str):
    """The normal form of a word of the selected group."""
    element = _group(args.group).element
    return element.from_word(parse_word(text, element.ALPHABET))


def cmd_normalize(args):
    text = _element(args, args.word).normal_form_text()
    return 0, [{"command": "normalize", "group": args.group, "normal_form": text}], [text]


def cmd_trivial(args):
    element = _element(args, args.word)
    name = _group(args.group).stage.semi_trivial(element, BASES[args.base](), args.fuel).value
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
    text = f"{verdict} clause={clause}" + ("" if point is None else " point=" + int_text(point))
    record = {"command": "compare", "group": args.group, "base": args.base,
              "verdict": verdict, "clause": clause, "point": point}
    return 0, [record], [text]


def cmd_encode(args):
    text = word_to_text(twogen.generator_word(args.index))
    return 0, [{"command": "encode", "index": args.index, "word": text}], [text]


def cmd_decode(args):
    base = BASES[args.base]()
    element = _element(args, args.word)
    decoded = word_to_text(twogen.decode(element, base))
    return 0, [{"command": "decode", "base": args.base, "word": decoded}], [decoded]


def _line(record: dict, *keys: str) -> str:
    """A sweep's text line: ``key=value`` for the given keys, or all; booleans as yes/NO."""
    def text(value):
        return ("yes" if value else "NO") if isinstance(value, bool) else value
    return " ".join(f"{key}={text(record[key])}" for key in keys or record)


def cmd_demo_theorem1(args):
    pair = PAIRS[args.pair]()
    records = reductions.separation_report(pair, args.max_n)
    summary = {"pair": pair.name, "entries": len(records),
               "violations": sum(not record["ok"] for record in records)}
    lines = [*map(_line, records), *(_line(summary, key) for key in summary)]
    return 0, [*records, summary], lines


def cmd_demo_theorem2(args):
    pair = PAIRS[args.pair]()
    verdicts = [
        "trivial" if reductions.merge_probe(n, pair.enum_n, args.fuel).trivial else "unknown"
        for n in range(1, args.max_n + 1)
    ]
    probed, confirmed = len(verdicts), verdicts.count("trivial")
    records = [{"n": n, "verdict": verdict} for n, verdict in enumerate(verdicts, 1)]
    summary = {"pair": args.pair, "probed": probed, "confirmed": confirmed,
               "unknown": probed - confirmed, "fuel": args.fuel}
    lines = [*map(_line, records), _line(summary, "pair"),
             _line(summary, "probed", "confirmed", "unknown", "fuel")]
    return 0, [*records, summary], lines


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
    p.add_argument("index", type=_integer)
    p = add(sub, "decode", cmd_decode, "recover a base word from its embedding", "--base", "word")
    p.set_defaults(group="G")

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
    except ValueError as exc:  # WordError included
        print(f"wreathembed: error: {_capped(str(exc))}", file=sys.stderr)
        return 1
