"""
A tour of the two-generator embedding
=====================================

Every countable free abelian group sits inside the group generated by just
``f`` and ``s``.  This script walks the full circle: pick a word in
infinitely many commuting letters, push it through the embedding, watch it
become a two-letter word, and pull it back out.
"""

from wreathembed import twogen
from wreathembed.base_groups import free_abelian_oracle
from wreathembed.twogen import FSElement
from wreathembed.words import FS_ALPHABET, X_ALPHABET, parse_word, word_to_text

oracle = free_abelian_oracle()

# The i-th commuting generator becomes a fixed commutator pattern in f and s.
for i in (1, 2, 3):
    print(f"x{i}  ->  {word_to_text(twogen.generator_word(i))}")
print()

# Encode a whole word.  The image is kept as a normal form: a list of
# (shift, exponent) factors plus a power of s.
w = parse_word("x1^2 x3^-1", X_ALPHABET)
g = twogen.encode_word(w)
print("x1^2 x3^-1  encodes to", g.normal_form_text())

# Membership in the image is decidable, and members decode uniquely.
print("in image:", twogen.in_image(g, oracle))
print("decoded :", word_to_text(twogen.decode(g, oracle)))
print()

# Non-members are recognized too.  s alone shifts without carrying a value,
# f alone carries values at infinitely many points, and conjugating an
# image element by s slides its support off the fixed evaluation point.
for text in ("s", "f"):
    h = FSElement.from_word(parse_word(text, FS_ALPHABET))
    print(f"{text!r:6} in image:", twogen.in_image(h, oracle))
shifted = FSElement.from_word(parse_word("s", FS_ALPHABET)) * g * FSElement.from_word(
    parse_word("s^-1", FS_ALPHABET)
)
print("s g s^-1 in image:", twogen.in_image(shifted, oracle))
print()

# The embedding also transfers the word problem: a word in the x-letters is
# trivial exactly when its image is.
for text in ("x1 x2 x1^-1 x2^-1", "x1 x2^-1"):
    u = parse_word(text, X_ALPHABET)
    print(f"{text!r} trivial in the base:",
          twogen.is_trivial(twogen.encode_word(u), oracle))
