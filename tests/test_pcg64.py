"""The pure-Python generator against numpy's Generator(PCG64), bit for bit."""

import math
from collections.abc import Iterator
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twtsim import VideoParams, generate_vbr_bursts
from twtsim.macsim import seed_state
from twtsim import pcg64
from twtsim.pcg64 import PCG64

DRAWS = 40_000
# every first attempt lands in one of 256 layers and takes one of four paths
ZIGGURAT = ({("layer", i) for i in range(256)}
            | {("fast",), ("wedge", "accept"), ("wedge", "reject"), ("tail",)})


def traced(rng: PCG64, draw, n: int, layer) -> tuple[list[float], set]:
    """``n`` draws, and the layers and paths their first attempts took.

    One word is the fast path; layer 0 with more words is the tail; another
    layer with two words is an accepted wedge, with more a rejected one."""
    words = []
    inner = rng._next64

    def next64():
        words.append(inner())
        return words[-1]

    rng._next64 = next64
    out, seen = [], set()
    for _ in range(n):
        words.clear()
        out.append(draw())
        idx = layer(words[0])
        seen.add(("layer", idx))
        if len(words) == 1:
            seen.add(("fast",))
        elif idx == 0:
            seen.add(("tail",))
        else:
            seen.add(("wedge", "accept" if len(words) == 2 else "reject"))
    return out, seen


@settings(deadline=None)
@given(seed=st.integers(0, 2**128))
def test_seeded_state_and_words_are_numpys(seed):
    rng, bitgen = PCG64(seed), np.random.PCG64(seed)
    assert (rng._state, rng._inc) == tuple(bitgen.state["state"].values())
    assert [rng._next64() for _ in range(4)] == bitgen.random_raw(4).tolist()


@pytest.mark.parametrize("k", [0.5, 0.8099, 1.0, 3.0])
def test_weibull_is_numpys_bit_for_bit_on_every_ziggurat_path(k):
    seed = seed_state((1, 0x7BA))
    rng = PCG64(seed)
    got, seen = traced(rng, lambda: rng.weibull(k), DRAWS, lambda w: w >> 3 & 0xFF)
    want = np.random.default_rng(seed).weibull(k, DRAWS)
    assert [x.hex() for x in got] == [float(x).hex() for x in want]
    assert seen == ZIGGURAT


def test_normal_is_numpys_bit_for_bit_on_every_ziggurat_path():
    seed = seed_state((2, 0x7BA))
    rng = PCG64(seed)
    got, seen = traced(rng, lambda: rng.normal(6.0, 1.8**0.5), DRAWS, lambda w: w & 0xFF)
    want = np.random.default_rng(seed).normal(6.0, 1.8**0.5, DRAWS)
    assert [x.hex() for x in got] == [float(x).hex() for x in want]
    assert seen == ZIGGURAT


@pytest.mark.parametrize("seed", range(4))
def test_vbr_bursts_are_numpys(seed):
    rng_seed = seed_state((seed, 0x7BA))
    got = generate_vbr_bursts(VideoParams(), 120.0, PCG64(rng_seed))
    want = generate_vbr_bursts(VideoParams(), 120.0, np.random.default_rng(rng_seed))
    assert [astuple(b) for b in got] == [astuple(b) for b in want]


# Ties: a draw exactly at one of the ziggurat's strict comparisons, where numpy
# does not take the fast path, accepts no wedge and accepts no tail point.
# Seeded draws almost never tie, so each test sets the words up itself.

def _before(word: int, inc: int) -> int:
    """The state whose next step outputs ``word``: after that step the state's
    high half is 0, so XSL-RR outputs its low half unrotated."""
    return (word - inc) * pow(pcg64._MULT, -1, 1 << 128) % (1 << 128)


def _both_at(word: int) -> tuple[PCG64, np.random.Generator]:
    """This generator and numpy's, each about to output ``word`` next."""
    rng = PCG64(0)
    rng._state = _before(word, rng._inc)
    gen = np.random.default_rng()
    gen.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": rng._state, "inc": rng._inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng, gen


def _scripted(*words: int) -> tuple[PCG64, Iterator[int]]:
    """A generator whose next words are ``words``, and what is left of them."""
    rng = PCG64(0)
    stream = iter(words)
    rng._next64 = stream.__next__
    return rng, stream


def _word_of(f, target: float, guess: float) -> int | None:
    """The word whose double ``u`` (its top 53 bits times 2**-53), near
    ``guess``, makes ``f(u) == target`` exactly; None if none near it does."""
    near = round(guess * 2**53)
    return next((k << 11 for k in range(max(near - 4, 0), min(near + 5, 2**53))
                 if f(k * 2.0**-53) == target), None)


@pytest.mark.parametrize("idx", [0, 1, 128, 255])
def test_an_exponential_word_at_its_layers_bound_is_not_fast(idx):
    # ri == ke[idx]: numpy goes on to the wedge or the tail, which takes one
    # more word, so each later draw would differ had this one been fast
    rng, gen = _both_at(pcg64._KE[idx] << 11 | idx << 3)
    assert [rng._standard_exponential() for _ in range(3)] == gen.standard_exponential(3).tolist()


@pytest.mark.parametrize("idx", [0, 1, 128, 255])
@pytest.mark.parametrize("sign", [0, 1])
def test_a_normal_word_at_its_layers_bound_is_not_fast(idx, sign):
    rng, gen = _both_at(pcg64._KI[idx] << 9 | sign << 8 | idx)
    assert [rng._standard_normal() for _ in range(3)] == gen.standard_normal(3).tolist()


def _wedge_tie(k: tuple, w: tuple, f: tuple, density, idx: int) -> tuple[int, int]:
    """A word ``r`` above layer ``idx``'s bound ``k[idx]``, so in its wedge,
    and the wedge word that puts the point ``x = r * w[idx]`` exactly on the
    density, ``(f[idx - 1] - f[idx]) * u + f[idx] == density(x)``."""
    d = f[idx - 1] - f[idx]
    for r in range(k[idx] + 1, k[idx] + 10_000):
        target = density(r * w[idx])
        word = _word_of(lambda u: d * u + f[idx], target, (target - f[idx]) / d)
        if word is not None:
            return r, word
    raise AssertionError(f"no wedge tie in layer {idx}")


@pytest.mark.parametrize("idx", [1, 100, 255])
def test_an_exponential_wedge_point_on_the_density_is_rejected(idx):
    ri, word = _wedge_tie(pcg64._KE, pcg64._WE, pcg64._FE, lambda x: math.exp(-x), idx)
    # the tie is rejected, and the next word's fast path is taken
    rng, stream = _scripted(ri << 11 | idx << 3, word, 1 << 11 | 2 << 3)
    assert rng._standard_exponential() == pcg64._WE[2]
    assert next(stream, None) is None


@pytest.mark.parametrize("idx", [1, 100, 255])
def test_a_normal_wedge_point_on_the_density_is_rejected(idx):
    rabs, word = _wedge_tie(pcg64._KI, pcg64._WI, pcg64._FI,
                            lambda x: math.exp(-0.5 * x * x), idx)
    rng, stream = _scripted(rabs << 9 | idx, word, 1 << 9 | 2)
    assert rng._standard_normal() == pcg64._WI[2]
    assert next(stream, None) is None


def test_a_normal_tail_point_on_the_bound_is_rejected():
    # xx about 1.2: yy is about 0.72, where most targets are a double's image
    start = round((1 - math.exp(-1.2 / pcg64._NOR_INV_R)) * 2**53)
    for k in range(start, start + 10_000):
        xx = -pcg64._NOR_INV_R * math.log1p(-k * 2.0**-53)
        target = xx * xx / 2
        word = _word_of(lambda u: -math.log1p(-u), target, -math.expm1(-target))
        if word is not None:
            break
    else:
        raise AssertionError("no tail tie")
    # layer 0 with the largest rabs, whose bit 8 makes the tail point negative;
    # the tie (yy + yy == xx * xx) is rejected, and the next pair, xx 0, accepted
    rng, stream = _scripted((1 << 52) - 1 << 9, k << 11, word, 0, 1 << 63)
    assert rng._standard_normal() == -pcg64._NOR_R
    assert next(stream, None) is None
