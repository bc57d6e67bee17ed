"""The pure-Python generator against numpy's Generator(PCG64), bit for bit."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twtsim import VideoParams, generate_vbr_bursts
from twtsim.macsim import seed_state
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
