"""Counter-based random streams for reproducible, scheduling-independent runs.

Every consumer of randomness (a simulated world, a particle cloud, a
Feynman-Kac probe) gets its own Philox stream keyed by ``(seed, purpose,
index)``.  Because the key fully determines the stream, path ``i`` draws the
same numbers whether it is generated alone, in a chunk, or on a different
worker count.

Two ways to reach a stream give the same draws.  A consumer that keeps
drawing from its stream while others draw from theirs (a world's filter
noise, a probe) holds its own generator from ``stream``.  Consumers that draw
once and are done (a world's Brownian increments, its death draw) walk the
worlds with ``keyed_streams``, which re-keys one Philox in place for each
index instead of building a new generator per world.
"""

from __future__ import annotations

import numpy as np

# purpose codes: keep stable, they are part of the reproducibility contract
PATHS = 0
DEATH = 1
FILTER = 2
PROBE = 3


def _key(seed: int, purpose: int, index: int) -> np.ndarray:
    """The Philox key of one (purpose, index) consumer."""
    if not 0 <= index < 2**32:
        raise ValueError(f"stream index out of range: {index}")
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, (purpose << 32) | index],
                    dtype=np.uint64)


def stream(seed: int, purpose: int, index: int) -> np.random.Generator:
    """Return the Philox generator for one (purpose, index) consumer."""
    return np.random.Generator(np.random.Philox(key=_key(seed, purpose, index)))


def keyed_streams(seed: int, purpose: int, indices):
    """Yield the generator of each (purpose, index) consumer in turn.

    One generator over one Philox is re-keyed before each yield: the key of
    the index, counter 0 and an empty output buffer, which is the state a
    fresh ``stream`` starts in, so the draws are the same.  A yielded
    generator is only valid until the next one is taken.
    """
    bits = np.random.Philox(key=_key(seed, purpose, 0))
    gen = np.random.Generator(bits)
    state = bits.state
    zero = np.zeros(4, dtype=np.uint64)
    for index in indices:
        state["state"] = {"counter": zero, "key": _key(seed, purpose, int(index))}
        bits.state = state
        yield gen


def unit_exponential(rng: np.random.Generator) -> float:
    """Draw a strictly positive unit-exponential variate.

    The uniform is resampled on the (measure-zero) event u == 0 so the
    returned variate lies in the open interval (0, inf); this keeps the death
    time strictly positive.
    """
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return -np.log1p(-u)
