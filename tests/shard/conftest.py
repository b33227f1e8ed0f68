"""Fixtures for the sharded multi-device execution suite.

The engines are module-scoped: sharded pools are cheap but not free
(N slice relations + N virtual devices), and every test here treats
them as stateless query endpoints.
"""

import pytest

from repro.core import GpuEngine


@pytest.fixture(scope="module")
def engines(small_relation):
    """Shard-count -> engine over the same 2000-record relation.

    ``1`` is the plain single-device engine (the differential oracle);
    2 and 4 exercise the shard pool at both even and uneven-ish splits;
    ``"4-killed"`` is a 4-shard pool whose shard 1 is dead, so every
    operation mixes three GPU shards with one CPU-recomputed shard.
    """
    killed = GpuEngine(small_relation, shards=4)
    killed.sharded.kill(1)
    return {
        # shards=1 pinned explicitly: the CI shard matrix exports
        # REPRO_SHARDS, and the oracle must stay single-device.
        1: GpuEngine(small_relation, shards=1),
        2: GpuEngine(small_relation, shards=2),
        4: GpuEngine(small_relation, shards=4),
        "4-killed": killed,
    }


@pytest.fixture(scope="module")
def sharded4(small_relation):
    """A private 4-shard engine for tests that mutate pool state
    (kills, contexts) and must not leak into the differential matrix."""
    return GpuEngine(small_relation, shards=4)
