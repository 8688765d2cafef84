"""Tiny deterministic random generator for reproducible scenario sampling.

The sampler must produce identical streams across platforms and language
ports, so it cannot depend on numpy's generator internals.  The update rule
is Marsaglia's xorshift64*, written out in full:

    s ^= s >> 12
    s ^= (s << 25) & 2**64-1
    s ^= s >> 27
    output = (s * 0x2545F4914F6CDD1D) & 2**64-1

Seeding: the state is the seed reduced mod 2**64; a zero state (invalid for
xorshift) is replaced by the fixed constant 0x9E3779B97F4A7C15.  Uniform
doubles take the top 53 output bits divided by 2**53.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_ZERO_SEED_STATE = 0x9E3779B97F4A7C15
_MULT = 0x2545F4914F6CDD1D


class XorShift64Star:
    """xorshift64* stream with a documented, port-friendly update rule."""

    def __init__(self, seed: int):
        state = seed & _MASK
        self._state = state if state != 0 else _ZERO_SEED_STATE

    def next_uint64(self) -> int:
        s = self._state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK
        s ^= s >> 27
        self._state = s
        return (s * _MULT) & _MASK

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_uint64() >> 11) * (1.0 / (1 << 53))

    def uniforms(self, count: int) -> list[float]:
        """The next count uniform doubles, as count calls of ``random`` would
        give them.  The state updates run in one Python loop; the output
        multiply, which wraps mod 2**64 in uint64 as the mask does, and the
        scaling run as one array expression.  The top 53 bits convert to
        double exactly, so every value is the one ``random`` gives."""
        s = self._state
        states = []
        append = states.append
        for _ in range(count):
            s ^= s >> 12
            s = (s ^ (s << 25)) & _MASK
            s ^= s >> 27
            append(s)
        self._state = s
        out = np.array(states, dtype=np.uint64) * np.uint64(_MULT)
        return ((out >> np.uint64(11)) * (1.0 / (1 << 53))).tolist()

    def choice_index(self, probabilities) -> int:
        """Index drawn from a discrete distribution by cumulative inversion.

        The last index absorbs any floating-point shortfall so a draw can
        never fall off the end.
        """
        u = self.random()
        acc = 0.0
        last = 0
        for i, p in enumerate(probabilities):
            acc += p
            last = i
            if u < acc:
                return i
        return last
