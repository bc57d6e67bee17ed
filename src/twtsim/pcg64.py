"""numpy's ``Generator(PCG64(seed))`` in pure Python, for the VBR model's draws.

``PCG64(seed)`` gives, bit for bit, the draws of
``numpy.random.default_rng(seed)`` for the two methods the traffic model
calls, ``weibull`` and ``normal``.  It reproduces:

- the seeding: ``SeedSequence(seed).generate_state(8)`` (``macsim.seed_state``)
  read as four little-endian uint64 words, the first two the initial state
  and the last two the stream increment;
- O'Neill's PCG64, a 128-bit LCG with the XSL-RR 128/64 output (PCG: A
  family of simple fast space-efficient statistically good algorithms for
  random number generation, 2014), stepped before each output;
- numpy's 53-bit doubles and its Marsaglia & Tsang ziggurats (J. Stat.
  Softw. 5(8), 2000) for the standard exponential and normal, each with its
  wedge rejection and its idx-0 tail.

The six 256-entry ziggurat tables in ``ziggurat_tables.txt`` are numpy's own
``ke/we/fe_double`` and ``ki/wi/fi_double``: they were read from the
``.rodata`` of ``src_distributions_distributions.c.o`` in numpy 2.4.6's
``numpy/random/lib/libnpyrandom.a``, not recomputed, since no recurrence
reproduces all six tables exactly.  The tail constants below are numpy's, at
full precision.  Those tables and constants are from NumPy, distributed under
this notice:

    Copyright (c) 2005-2025, NumPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions are
    met:

        * Redistributions of source code must retain the above copyright
           notice, this list of conditions and the following disclaimer.

        * Redistributions in binary form must reproduce the above
           copyright notice, this list of conditions and the following
           disclaimer in the documentation and/or other materials provided
           with the distribution.

        * Neither the name of the NumPy Developers nor the names of any
           contributors may be used to endorse or promote products derived
           from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
import os

from .macsim import seed_state

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULT = (2549297995355413924 << 64) + 4865540595714422341
_EXP_R = 7.6971174701310497140446280481
_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596


def _load_tables() -> list[tuple]:
    """``[ke, we, fe, ki, wi, fi]``, each indexed by layer 0..255."""
    path = os.path.join(os.path.dirname(__file__), "ziggurat_tables.txt")
    text = __spec__.loader.get_data(path).decode()  # as config.default_config_text reads
    rows = [line.split()[1:] for line in text.splitlines() if not line.startswith("#")]
    return [tuple(map(parse, column))
            for parse, column in zip((int, float.fromhex, float.fromhex) * 2, zip(*rows))]


_KE, _WE, _FE, _KI, _WI, _FI = _load_tables()


class PCG64:
    """``numpy.random.default_rng(seed)``, reduced to ``weibull`` and ``normal``."""

    def __init__(self, seed: int) -> None:
        words = seed_state(seed, n_words=8)
        initstate = (words & _MASK64) << 64 | (words >> 64) & _MASK64
        initseq = (words >> 128 & _MASK64) << 64 | words >> 192
        self._inc = (initseq << 1 | 1) & _MASK128
        # from state 0: step, add the initial state, step
        self._state = ((self._inc + initstate) * _MULT + self._inc) & _MASK128

    def _next64(self) -> int:
        s = self._state = (self._state * _MULT + self._inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next_double(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def _standard_exponential(self) -> float:
        while True:
            ri = self._next64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * _WE[idx]
            if ri < _KE[idx]:
                return x
            if idx == 0:
                return _EXP_R - math.log1p(-self._next_double())
            if (_FE[idx - 1] - _FE[idx]) * self._next_double() + _FE[idx] < math.exp(-x):
                return x

    def _standard_normal(self) -> float:
        while True:
            r = self._next64()
            idx = r & 0xFF
            rabs = r >> 9 & 0x000FFFFFFFFFFFFF
            x = rabs * _WI[idx]
            if r >> 8 & 1:
                x = -x
            if rabs < _KI[idx]:
                return x
            if idx == 0:
                while True:
                    xx = -_NOR_INV_R * math.log1p(-self._next_double())
                    yy = -math.log1p(-self._next_double())
                    if yy + yy > xx * xx:
                        return -(_NOR_R + xx) if rabs >> 8 & 1 else _NOR_R + xx
            if (_FI[idx - 1] - _FI[idx]) * self._next_double() + _FI[idx] < math.exp(-0.5 * x * x):
                return x

    def weibull(self, a: float) -> float:
        """One Weibull(a) draw, scale 1; ``a`` > 0."""
        return self._standard_exponential() ** (1.0 / a)

    def normal(self, loc: float, scale: float) -> float:
        """One Normal(loc, scale) draw."""
        return loc + scale * self._standard_normal()
