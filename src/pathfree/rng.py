"""Seed management.

Every randomized operation in the package takes an integer ``seed`` and
derives independent substreams with :func:`substream`.  A substream is
identified by a label path (stage name, trial index, ...) hashed into
``numpy.random.SeedSequence`` via ``spawn_key``, so

* the same ``(seed, path)`` always yields the same generator,
* distinct paths yield statistically independent generators, and
* trial loops can run in any order without changing which generator
  trial ``t`` sees.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "subseed"]


def _encode(part: int | str) -> tuple[int, ...]:
    # SeedSequence spawn keys are uint32 words; strings are folded byte-wise
    # with a sentinel so that ("a", 1) and ("a1",) cannot collide.
    if isinstance(part, int):
        if part < 0:
            raise ValueError("substream path parts must be non-negative")
        return (0, part & 0xFFFFFFFF, part >> 32)
    data = part.encode("utf-8")
    words = [1, len(data)]
    for i in range(0, len(data), 4):
        words.append(int.from_bytes(data[i : i + 4], "little"))
    return tuple(words)


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Return the generator for the substream of ``seed`` named by ``path``."""
    key: tuple[int, ...] = ()
    for part in path:
        key = key + _encode(part)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def subseed(seed: int, *path: int | str) -> int:
    """Derive an integer seed for the substream named by ``path``.

    Used when handing a substream to an API that itself takes a seed rather
    than a generator; the derived value is independent of every generator
    returned by :func:`substream`.
    """
    key = _encode("subseed")
    for part in path:
        key = key + _encode(part)
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)
    return (int(state[0]) ^ (int(state[1]) << 32)) & (2**63 - 1)
