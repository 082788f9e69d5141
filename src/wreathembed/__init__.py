"""Computable wreath-product embeddings of countable groups.

The package realizes a two-stage embedding of a countable group H into a
two-generator group G of derived length at most two more than H's:

* stage one places H on the diagonal of a restricted wreath product with an
  infinite cyclic top (:mod:`wreathembed.wreath`),
* stage two compresses the countably many stage-one generators into just two
  generators ``f`` and ``s`` (:mod:`wreathembed.twogen`).

On top of the embedding the package provides word-problem and membership
deciders relative to an oracle for H, fueled semi-deciders for recursively
presented H, computable bi-invariant orders lifted from H to G
(:mod:`wreathembed.orders`), and the base-group constructions driven by
enumerations of register-machine behaviour (:mod:`wreathembed.base_groups`,
:mod:`wreathembed.machines`) together with the separation and probe reports
built from them (:mod:`wreathembed.reductions`).
"""
