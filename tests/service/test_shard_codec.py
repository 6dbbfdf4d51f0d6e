"""Shard boundary plumbing: ``shard_ranges`` partition properties (the
node ranges shard-parallel columnar runs split ``0..n-1`` into)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clique.errors import CliqueError
from repro.service.kernel import shard_ranges


class TestShardRangesProperties:
    @given(
        n=st.integers(min_value=1, max_value=500),
        shards=st.integers(min_value=1, max_value=600),
    )
    def test_ranges_partition_exactly_in_order(self, n, shards):
        ranges = shard_ranges(n, shards)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        covered = [v for lo, hi in ranges for v in range(lo, hi)]
        assert covered == list(range(n))

    @given(n=st.integers(min_value=1, max_value=500), data=st.data())
    def test_no_empty_shard_when_shards_at_most_n(self, n, data):
        shards = data.draw(st.integers(min_value=1, max_value=n))
        ranges = shard_ranges(n, shards)
        assert len(ranges) == shards
        assert all(hi > lo for lo, hi in ranges)

    @given(
        n=st.integers(min_value=1, max_value=200),
        excess=st.integers(min_value=1, max_value=400),
    )
    def test_more_shards_than_nodes_degrades_to_n_singletons(self, n, excess):
        ranges = shard_ranges(n, n + excess)
        assert ranges == [(v, v + 1) for v in range(n)]

    @given(
        n=st.integers(min_value=1, max_value=500),
        shards=st.integers(min_value=1, max_value=600),
    )
    def test_balanced_within_one(self, n, shards):
        sizes = [hi - lo for lo, hi in shard_ranges(n, shards)]
        assert max(sizes) - min(sizes) <= 1

    @given(shards=st.integers(max_value=0))
    def test_fewer_than_one_shard_rejected(self, shards):
        with pytest.raises(CliqueError, match="at least one shard"):
            shard_ranges(8, shards)
