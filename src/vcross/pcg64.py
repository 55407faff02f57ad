"""numpy's ``default_rng(seed).uniform`` draws, bit for bit, without ``numpy.random``."""

import math
import operator

import numpy as np

M32, M64, M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


class PCG64Stream:
    """numpy's SeedSequence hash of the seed seeds PCG64: the 128-bit LCG with XSL-RR
    output (O'Neill 2014, HMC-CS-2014-0905), stepped before each output.
    """

    def __init__(self, seed):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        entropy = [seed >> s & M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        const = [0x43B0D7E5, 0x931E8875]  # the hash constant and its multiplier

        def hash_(value):
            value, const[0] = value ^ const[0], const[0] * const[1] & M32
            value = value * const[0] & M32
            return value ^ value >> 16

        def mix(x, y):
            r = (0xCA01F9DD * x - 0x4973F715 * y) & M32
            return r ^ r >> 16

        pool = [hash_(word) for word in (entropy + [0] * 4)[:4]]
        for src, dst in [(s, d) for s in range(4) for d in range(4) if s != d]:
            pool[dst] = mix(pool[dst], hash_(pool[src]))
        for word in entropy[4:]:
            pool = [mix(p, hash_(word)) for p in pool]
        const[:] = 0x8B51F9DD, 0x58F38DED
        w = [hash_(lo) | hash_(hi) << 32 for lo, hi in zip(pool[::2] * 2, pool[1::2] * 2)]
        self._inc = (w[2] << 64 | w[3]) << 1 & M128 | 1
        self._state = ((self._inc + (w[0] << 64 | w[1])) * MULTIPLIER + self._inc) & M128

    def _double(self):  # the output's top 53 bits, times 2**-53
        self._state = s = (self._state * MULTIPLIER + self._inc) & M128
        word, rot = (s >> 64 ^ s) & M64, s >> 122
        return (((word >> rot | word << 64 - rot) & M64) >> 11) * 2.0**-53

    def uniform(self, low, high, size=None):
        """``Generator.uniform`` on scalar bounds; a refused draw takes no state."""
        low, span = float(low), float(high) - float(low)
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0.0:  # numpy refuses -0.0 too
            raise ValueError("high - low < 0")
        if size is None:
            return low + span * self._double()
        count = np.empty(size).size  # a negative size is refused before any draw, as by numpy
        return np.reshape([low + span * self._double() for _ in range(count)], size)
