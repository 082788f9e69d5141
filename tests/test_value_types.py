"""The value types against the dataclasses they replaced.

``reference_scans`` keeps each value type's former dataclass declaration as
a ``...ByDataclass`` twin.  A seeded differential builds a library value and
its twin from the same fields and checks that both kinds compare, hash,
print, copy, pickle and refuse assignment alike.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import random

import pytest

import reference_scans as ref
import wreathembed
from wreathembed import base_groups, machines, orders
from wreathembed.base_groups import EnumeratedPair, GroupOracle
from wreathembed.orders import OrderOracle
from wreathembed.twogen import FSElement
from wreathembed.words import A_ALPHABET, FS_ALPHABET, X_ALPHABET, ZB_ALPHABET, Alphabet, Word
from wreathembed.wreath import ZBElement

ALPHABETS = [X_ALPHABET, A_ALPHABET, ZB_ALPHABET, FS_ALPHABET]


def _spec(rng: random.Random) -> tuple[type, type, tuple]:
    """A library class, its twin and the fields of one value, from small
    domains so that equal fields recur."""
    kind = rng.randrange(5)
    if kind == 0:
        name, plain, indexed = rng.choice(
            [("free-abelian", (), ("x",)), ("two-generator", ("f", "s"), ()), ("w", ("a",), ("b",))]
        )
        return Alphabet, ref.AlphabetByDataclass, (name, frozenset(plain), frozenset(indexed))
    if kind == 1:
        runs = tuple(("x", rng.randint(1, 2), rng.choice((-1, 1)))
                     for _ in range(rng.randint(0, 2)))
        return Word, ref.WordByDataclass, (rng.choice(ALPHABETS[:2]), runs)
    if kind in (2, 3):
        factors = tuple((rng.randint(0, 1), rng.choice((-1, 1))) for _ in range(rng.randint(0, 2)))
        twin = ref.ZBElementByDataclass if kind == 2 else ref.FSElementByDataclass
        return ZBElement if kind == 2 else FSElement, twin, (factors, rng.randint(-1, 1))
    name, enum_n, enum_m, classify = (rng.choice(options) for options in (
        ("mock", "other"), (abs, int), (abs, int), (None, bool)))
    return EnumeratedPair, ref.EnumeratedPairByDataclass, (name, enum_n, enum_m, classify)


def _round_trips(value) -> list:
    return [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]


def _shown(value) -> str:
    return repr(value).replace("ByDataclass", "")


def _refusals(value, names: list[str]) -> list[str]:
    # The message of each refused assignment and deletion of a field.
    out = []
    for name in names:
        with pytest.raises(AttributeError) as assigned:
            setattr(value, name, None)
        with pytest.raises(AttributeError) as deleted:
            delattr(value, name)
        out += [str(assigned.value), str(deleted.value)]
    return out


def test_values_behave_as_their_dataclass_twins():
    rng = random.Random(3601)
    for _ in range(400):
        spec = _spec(rng)
        (cls_a, twin_a, fields_a), (cls_b, twin_b, fields_b) = spec, rng.choice([spec, _spec(rng)])
        a, b, ta, tb = cls_a(*fields_a), cls_b(*fields_b), twin_a(*fields_a), twin_b(*fields_b)
        names = [f.name for f in dataclasses.fields(ta)]
        assert cls_a._fields == tuple(names) and not hasattr(a, "__dict__")
        assert (a == a, a == b, a != b, b == a) == (ta == ta, ta == tb, ta != tb, tb == ta)
        by_identity = hash(a) == object.__hash__(a)
        assert by_identity == (hash(ta) == object.__hash__(ta))
        assert by_identity or hash(a) == hash(ta)
        assert _shown(a) == _shown(ta)
        for got, want in zip(_round_trips(a), _round_trips(ta), strict=True):
            assert type(got) is cls_a and type(want) is twin_a
            assert (got == a, _shown(got)) == (want == ta, _shown(want))
        assert _refusals(a, names) == _refusals(ta, names)


def test_elements_of_the_two_stages_differ_with_equal_fields():
    for fields in [((), 0), (((1, 1),), 0), (((1, 2, 3),), 4)]:
        assert ZBElement(*fields) != FSElement(*fields)
        assert FSElement(*fields) != ZBElement(*fields)
        assert ZBElement(*fields) == ZBElement(*fields)
        assert ref.ZBElementByDataclass(*fields) != ref.FSElementByDataclass(*fields)


def test_run_states_and_enumerations_start_as_their_twins():
    rng = random.Random(3602)
    for _ in range(20):
        program = tuple(rng.randrange(8) for _ in range(rng.randint(0, 4)))
        twin = ref.RunStateByDataclass(program)
        run = machines._RunState(program)
        assert {name: getattr(run, name) for name in vars(twin)} == vars(twin)
    twin, enum = ref.DovetailEnumerationByDataclass(), machines.DovetailEnumeration()
    assert {name: getattr(enum, name) for name in vars(twin) if name != "_lock"} == {
        name: value for name, value in vars(twin).items() if name != "_lock"}


def test_only_the_two_oracles_are_dataclasses_and_they_compare_by_identity():
    found = set()
    names = [info.name for info in pkgutil.iter_modules(wreathembed.__path__)]
    for module in (importlib.import_module(f"wreathembed.{name}") for name in names
                   if name != "__main__"):
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                if dataclasses.is_dataclass(value):
                    found.add(value.__name__)
    assert found == {"GroupOracle", "OrderOracle"}
    for oracle in (base_groups.free_abelian_oracle(), orders.lex_order()):
        twin = dataclasses.replace(oracle)
        assert twin is not oracle and twin != oracle and hash(twin) != hash(oracle)
        assert oracle == oracle and hash(oracle) == object.__hash__(oracle)
    assert GroupOracle("g", X_ALPHABET, abs) != GroupOracle("g", X_ALPHABET, abs)
    assert OrderOracle("o", X_ALPHABET, abs) != OrderOracle("o", X_ALPHABET, abs)


def test_copies_over_the_four_alphabets_mix_with_their_originals():
    # Each module constant copies and unpickles as itself, so a copied word,
    # or the word of a copied element, multiplies with its original.
    values = [ZBElement.make([(1, 2, 3), (2, -1, -1)], 1), FSElement.make([(5, -1), (0, 2)], 2)]
    for alphabet in ALPHABETS:
        assert all(got is alphabet for got in _round_trips(alphabet))
        letter = next(iter(alphabet.indexed or alphabet.plain))
        values.append(Word.make(alphabet, [(letter, 2 if alphabet.indexed else None, 3)]))
    for value in values:
        for got in _round_trips(value):
            assert got == value and hash(got) == hash(value)
            assert got * value == value * got == value * value
            if not isinstance(value, Word):
                assert got.to_word() * value.to_word() == (value * value).to_word()
    built = Alphabet("w", frozenset({"a"}), frozenset({"b"}))
    for got in _round_trips(built):
        assert type(got) is Alphabet and got is not built and got != built
        assert got._values() == built._values()
