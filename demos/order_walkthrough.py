#!/usr/bin/env python3
# Lifting a bi-invariant order through two wreath-style extensions.
#
# Start from the lexicographic order on the free abelian base, lift it to
# the z/b wreath group, then lift again to the two-generator group.  At
# each level the comparison first looks at the shift ("tail"), then at the
# first point where the carried values differ.

from wreathembed import twogen, wreath
from wreathembed.base_groups import free_abelian_oracle
from wreathembed.orders import fs_compare, lex_order, zb_compare
from wreathembed.words import FS_ALPHABET, X_ALPHABET, ZB_ALPHABET, parse_word

oracle = free_abelian_oracle()
base_order = lex_order()

print("base level: lexicographic on commuting letters")
for left, right in (("x1", "x2"), ("x1 x2^-1", ""), ("x2^-1", "x1^-1")):
    u, v = parse_word(left, X_ALPHABET), parse_word(right, X_ALPHABET)
    rel = {"LT": "<", "EQ": "=", "GT": ">"}[base_order.compare(u, v)]
    print(f"  {left!r:12} {rel} {right!r}")
print()

print("one level up: z/b words, compared tail first, then first value")
pairs = (("z", ""), ("b1", "b2"), ("b1 z b1^-1", "z"))
for left, right in pairs:
    a = wreath.from_word(parse_word(left, ZB_ALPHABET))
    b = wreath.from_word(parse_word(right, ZB_ALPHABET))
    verdict, clause, point = zb_compare(a, b, base_order, oracle)
    where = "" if point is None else f" at point {point}"
    print(f"  {left!r:14} vs {right!r:6} -> {verdict} (decided by {clause}{where})")
print()

print("two levels up: f/s words")
pairs = (("f", "s"), ("f s f s^-1", "s f s^-1 f"), ("f", "s f s^-1"))
for left, right in pairs:
    a = twogen.from_word(parse_word(left, FS_ALPHABET))
    b = twogen.from_word(parse_word(right, FS_ALPHABET))
    verdict, clause, point = fs_compare(a, b, base_order, oracle)
    where = "" if point is None else f" at point {point}"
    print(f"  {left!r:14} vs {right!r:14} -> {verdict} (decided by {clause}{where})")
print()

# Bi-invariance is what makes the lifted relation a group order: multiplying
# both sides by the same elements, on either side, never flips a comparison.
a = twogen.from_word(parse_word("f", FS_ALPHABET))
b = twogen.from_word(parse_word("s", FS_ALPHABET))
c = twogen.from_word(parse_word("s^2 f^-1", FS_ALPHABET))
before = fs_compare(a, b, base_order, oracle)[0]
after = fs_compare(c * a, c * b, base_order, oracle)[0]
print(f"f vs s: {before};  after left-multiplying both by s^2 f^-1: {after}")
