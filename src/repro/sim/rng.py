"""Named, independently seeded random streams.

Experiments draw randomness for several unrelated purposes (task arrivals,
model choice, background traffic, failures).  Using one shared generator
would couple them: adding one extra draw in the traffic model would shift
every subsequent task arrival.  :class:`RandomStreams` derives one
``random.Random`` per *name* from a master seed, so each consumer is
reproducible in isolation.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """A factory of independent named random generators.

    Args:
        master_seed: seed from which every stream is derived.

    Example::

        streams = RandomStreams(42)
        arrivals = streams.stream("arrivals")
        traffic = streams.stream("traffic")
        # Draws from ``traffic`` never perturb ``arrivals``.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        """The seed every stream is derived from."""
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return the generator for ``name``, creating it on first use.

        The per-stream seed is a stable hash of ``(master_seed, name)`` so
        the mapping is identical across processes and platforms.
        """
        if name not in self._streams:
            digest = hashlib.sha256(
                f"{self._master_seed}:{name}".encode("utf-8")
            ).digest()
            seed = int.from_bytes(digest[:8], "big")
            self._streams[name] = random.Random(seed)
        return self._streams[name]

    def clone(self) -> "RandomStreams":
        """An independent copy: the same seed, every stream in its state."""
        twin = RandomStreams(self._master_seed)
        for name, stream in self._streams.items():
            # Random.__new__ skips the seeding Random() would do first.
            copy = random.Random.__new__(random.Random)
            copy.setstate(stream.getstate())
            twin._streams[name] = copy
        return twin

    def fork(self, name: str) -> "RandomStreams":
        """Derive a child :class:`RandomStreams` (e.g. one per replication)."""
        digest = hashlib.sha256(
            f"{self._master_seed}/fork/{name}".encode("utf-8")
        ).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))
