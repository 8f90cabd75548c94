"""Consistent-hash router: node id -> scorer shard, stable under resize.

The gateway partitions the fleet across N scorer shards by node id.  A
naive ``node % N`` remaps nearly every node when N changes; a consistent
hash ring built with one shard more or fewer moves only ~1/N of the
keys, which is what lets an operator rescale the scoring tier without a
fleet-wide feature-history rebuild.

The ring hashes with SHA-256 (not Python's ``hash``) so placement is
independent of ``PYTHONHASHSEED`` and identical across processes — ring
placement participates in the gateway's determinism contract.  Each
shard owns ``replicas`` virtual points on the ring to even out the
partition sizes (classic Karger-style consistent hashing).
"""

from __future__ import annotations

import bisect
import hashlib

from repro.utils.errors import ValidationError

__all__ = ["ConsistentHashRing"]


def _point(label: str) -> int:
    """Ring coordinate for a label: first 8 bytes of SHA-256, big-endian."""
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


class ConsistentHashRing:
    """Maps integer node ids onto shard ids via a virtual-node hash ring."""

    def __init__(self, shard_ids, *, replicas: int = 64) -> None:
        if replicas < 1:
            raise ValidationError("replicas must be >= 1")
        self.replicas = int(replicas)
        shards = [int(shard_id) for shard_id in shard_ids]
        if not shards:
            raise ValidationError("a hash ring needs at least one shard")
        if len(set(shards)) < len(shards):
            raise ValidationError(f"duplicate shard ids on the ring: {shards}")
        ring = sorted(
            (_point(f"shard:{shard_id}:{replica}"), shard_id)
            for shard_id in shards
            for replica in range(self.replicas)
        )
        self._points = [point for point, _ in ring]
        self._owners = [owner for _, owner in ring]
        #: node id -> owning shard; placement is a pure function of the id.
        self._placed: dict[int, int] = {}

    def route(self, node_id: int) -> int:
        """Shard owning ``node_id``: first ring point clockwise of its hash."""
        node_id = int(node_id)
        owner = self._placed.get(node_id)
        if owner is None:
            at = bisect.bisect_right(self._points, _point(f"node:{node_id}"))
            if at == len(self._points):
                at = 0
            owner = self._placed[node_id] = self._owners[at]
        return owner
