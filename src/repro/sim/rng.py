"""Deterministic random number generation for the simulator.

All stochastic choices in the model (receiver/giver matching, sketch decay,
workload generation) draw from :class:`DeterministicRNG` instances derived
from a single root seed, so a run is exactly reproducible from its seed.
Sub-streams are derived by name, which keeps component behaviour independent
of construction order.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Any, List, Sequence, Tuple, Type, TypeVar

T = TypeVar("T")

#: A Mersenne Twister state: 624 32-bit words plus the position index.
_MT_WORDS = struct.Struct("<625I")


class DeterministicRNG:
    """A named, seeded random stream."""

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._rng = random.Random(self._derive(seed, name))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def substream(self, name: str) -> "DeterministicRNG":
        """Create an independent stream keyed by ``name``."""
        return DeterministicRNG(self.seed, f"{self.name}/{name}")

    # -- snapshot/restore support ------------------------------------------
    def getstate(self) -> object:
        """The underlying Mersenne Twister state (snapshot capture)."""
        return self._rng.getstate()

    def setstate(self, state: object) -> None:
        """Restore a state captured by :meth:`getstate`."""
        self._rng.setstate(state)  # type: ignore[arg-type]

    def __reduce__(self) -> Tuple[Any, ...]:
        """Pickle the Mersenne Twister state as 2.5 KB of packed words:
        a snapshot thaw then holds no per-word int objects.  The other
        attributes travel as slot state, so unpickling sets them one by
        one, as ``__init__`` does."""
        attrs = dict(self.__dict__)
        version, words, gauss = attrs.pop("_rng").getstate()
        return (
            _thaw_rng, (type(self), version, _MT_WORDS.pack(*words), gauss),
            (None, attrs),
        )

    def state_digest(self) -> str:
        """Short stable digest of the current stream state, for snapshot
        manifests -- two streams with equal digests will produce the
        same draw sequence."""
        blob = repr((self.seed, self.name, self._rng.getstate())).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- delegating helpers ------------------------------------------------
    def random(self) -> float:
        return self._rng.random()

    def randint(self, a: int, b: int) -> int:
        return self._rng.randint(a, b)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(seq, k)

    def shuffle(self, lst: List[T]) -> None:
        self._rng.shuffle(lst)

    def uniform(self, a: float, b: float) -> float:
        return self._rng.uniform(a, b)

    def expovariate(self, lam: float) -> float:
        return self._rng.expovariate(lam)

    def paretovariate(self, alpha: float) -> float:
        return self._rng.paretovariate(alpha)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DeterministicRNG(seed={self.seed}, name={self.name!r})"


def _thaw_rng(
    cls: Type[DeterministicRNG], version: int, words: bytes, gauss: object
) -> DeterministicRNG:
    """Inverse of :meth:`DeterministicRNG.__reduce__` (pickle then sets
    the remaining attributes)."""
    rng = cls.__new__(cls)
    rng._rng = random.Random(0)
    rng._rng.setstate((version, _MT_WORDS.unpack(words), gauss))
    return rng
