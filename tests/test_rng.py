"""Seed-splitting guarantees: substreams are stable, labelled, independent."""

import numpy as np
import pytest

from pathfree import UsageError, substream, subseed


def test_same_path_same_stream():
    a = substream(7, "trial", 3).integers(0, 1 << 30, size=16)
    b = substream(7, "trial", 3).integers(0, 1 << 30, size=16)
    assert np.array_equal(a, b)


def test_labels_change_the_stream():
    base = substream(7, "trial", 3).integers(0, 1 << 30, size=8).tolist()
    assert substream(7, "trial", 4).integers(0, 1 << 30, size=8).tolist() != base
    assert substream(7, "other", 3).integers(0, 1 << 30, size=8).tolist() != base
    assert substream(8, "trial", 3).integers(0, 1 << 30, size=8).tolist() != base


def test_subseed_matches_substream_identity():
    # subseed is the integer identity of the same split
    assert subseed(5, "a", 1) == subseed(5, "a", 1)
    assert subseed(5, "a", 1) != subseed(5, "a", 2)
    assert subseed(5, "a") != subseed(5, "b")


def test_draw_order_does_not_leak_between_substreams():
    # consuming one stream must not advance a sibling
    first = substream(11, "x", 0)
    first.integers(0, 100, size=1000)
    fresh = substream(11, "x", 1).integers(0, 1 << 30, size=8)
    again = substream(11, "x", 1).integers(0, 1 << 30, size=8)
    assert np.array_equal(fresh, again)


def test_a_negative_seed_is_refused():
    # numpy's SeedSequence would raise a bare ValueError
    for split in (substream, subseed):
        with pytest.raises(UsageError, match="seed must be non-negative"):
            split(-3, "trial", 0)
