"""The one-pass JSON renderer against the standard library's route.

cli.render_json must print exactly what json.dumps(jsonable(x),
sort_keys=True, indent=2) prints (tests/oracles.py), for any payload of
dicts with string keys, lists, tuples, strings, ints, bools and
Fractions.  Run as a
script, the differential test sweeps FULL_PAYLOADS seeded payloads:

    PYTHONPATH=src python tests/test_render.py
"""

import random
import time
from fractions import Fraction

import pytest

import oracles
from toricpick import cli

FULL_PAYLOADS = 20000
# quote, backslash, control, non-ASCII, astral and line separator characters
ALPHABET = 'aZ0 _/"\\\n\t\r\x00\x1f\x7f\xe9\xa0\u2028\u2029\u6f22\U0001f600'


def random_text(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def random_leaf(rng):
    pick = rng.randrange(7)
    if pick == 0:
        return random_text(rng)
    if pick == 1:
        return rng.randrange(-10 ** 6, 10 ** 6)
    if pick == 2:
        return rng.choice((-1, 1)) * rng.randrange(10 ** 299, 10 ** 300)
    if pick == 3:
        return rng.random() < 0.5
    if pick == 4:
        return Fraction(rng.randrange(-9, 10))
    return Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 4))


def random_payload(rng, depth=4):
    """Dicts, lists and tuples nested at most depth deep, empty ones included."""
    if depth == 0 or rng.random() < 0.25:
        return random_leaf(rng)
    size = rng.randrange(5)
    pick = rng.randrange(3)
    if pick == 0:
        return {random_text(rng): random_payload(rng, depth - 1) for _ in range(size)}
    items = [random_payload(rng, depth - 1) for _ in range(size)]
    return items if pick == 1 else tuple(items)


def sweep(seed, count):
    """Render count seeded payloads both ways; returns count."""
    rng = random.Random(seed)
    for _ in range(count):
        data = random_payload(rng)
        assert cli.render_json(data) == oracles.render_json(data), data
    return count


def test_random_payloads_render_as_the_standard_library_does():
    assert sweep(1, 500) == 500


@pytest.mark.parametrize("data", [
    {}, [], (), "", 0, -7, True, False, Fraction(-3, 4), Fraction(6, 3),
    {"10": 1, "9": 2, "8": [3, ()]},
    {"a": {}, "b": [], "c": [{}, []]},
    [(Fraction(1, 2),), {"\u2028": "\u2028"}],
])
def test_edge_payloads(data):
    assert cli.render_json(data) == oracles.render_json(data)


@pytest.mark.parametrize("data", [0.5, None, {"a": [1, None]}, {1, 2}])
def test_unrenderable_values_raise_as_jsonable_does(data):
    with pytest.raises(TypeError) as ours:
        cli.render_json(data)
    with pytest.raises(TypeError) as reference:
        cli.jsonable(data)
    assert str(ours.value) == str(reference.value)


def test_keys_must_be_strings():
    for data in ({1: 2}, {"a": {(0, 1): 2}}):
        with pytest.raises(TypeError):
            cli.render_json(data)


if __name__ == "__main__":
    start = time.perf_counter()
    print("%d random payloads render as json.dumps does, %.1f s"
          % (sweep(2, FULL_PAYLOADS), time.perf_counter() - start))
