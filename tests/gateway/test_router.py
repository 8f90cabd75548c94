"""Consistent-hash ring: determinism, balance, and resize stability."""

import pytest

from repro.gateway.router import ConsistentHashRing
from repro.utils.errors import ValidationError

NODES = range(1000)


def _assign(ring):
    return {node: ring.route(node) for node in NODES}


class TestRouting:
    def test_route_is_deterministic_across_instances(self):
        a = ConsistentHashRing(range(4))
        b = ConsistentHashRing(range(4))
        assert _assign(a) == _assign(b)

    def test_every_shard_gets_a_reasonable_share(self):
        assignment = _assign(ConsistentHashRing(range(4)))
        for shard in range(4):
            share = sum(1 for owner in assignment.values() if owner == shard)
            # Perfect balance is 250; virtual replicas keep skew bounded.
            assert 100 <= share <= 450

    def test_placement_survives_memoisation_and_pickling(self):
        import pickle

        ring = ConsistentHashRing(range(4))
        first = _assign(ring)
        assert _assign(ring) == first  # answered from the memo
        clone = pickle.loads(pickle.dumps(ring))
        assert _assign(clone) == first
        assert _assign(pickle.loads(pickle.dumps(ConsistentHashRing(range(4))))) == first

    def test_route_returns_known_shards_only(self):
        ring = ConsistentHashRing([3, 7, 11])
        assert set(_assign(ring).values()) <= {3, 7, 11}


class TestResizeStability:
    """A gateway rebuilt at another shard count keeps most placements."""

    def test_adding_a_shard_moves_about_one_over_n_keys(self):
        before = _assign(ConsistentHashRing(range(4)))
        after = _assign(ConsistentHashRing(range(5)))
        moved = [n for n in NODES if before[n] != after[n]]
        # Expectation is 1/5 of keys; allow generous hash-noise slack but
        # stay far below the ~4/5 a modulo router would move.
        assert 0.05 * len(before) <= len(moved) <= 0.40 * len(before)
        # Every moved key must have moved TO the new shard, never
        # between surviving shards.
        assert all(after[n] == 4 for n in moved)

    def test_removing_a_shard_only_moves_its_own_keys(self):
        before = _assign(ConsistentHashRing(range(5)))
        after = _assign(ConsistentHashRing([0, 1, 3, 4]))
        for node in NODES:
            if before[node] != 2:
                assert after[node] == before[node]
            else:
                assert after[node] != 2


class TestValidation:
    def test_empty_ring_rejected(self):
        with pytest.raises(ValidationError):
            ConsistentHashRing([])

    def test_duplicate_shard_rejected(self):
        with pytest.raises(ValidationError):
            ConsistentHashRing([0, 1, 1])
