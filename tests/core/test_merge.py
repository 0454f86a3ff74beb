"""Unit tests for the distributed merge helper (Section VI-B)."""

from __future__ import annotations

import random

import pytest

from repro.core.aggregates import DecayedCount, DecayedSum
from repro.core.decay import ForwardDecay
from repro.core.errors import MergeError
from repro.core.functions import ExponentialG, PolynomialG
from repro.core.heavy_hitters import DecayedHeavyHitters
from repro.core.merge import Mergeable, merge_all
from repro.workloads.synthetic import zipf_stream
from tests.conftest import PAPER_STREAM


def test_merge_all_three_sites(paper_decay):
    sites = [DecayedSum(paper_decay) for __ in range(3)]
    whole = DecayedSum(paper_decay)
    for index, (t, v) in enumerate(PAPER_STREAM):
        sites[index % 3].update(t, v)
        whole.update(t, v)
    combined = merge_all(sites)
    assert combined is sites[0]
    assert combined.query(110.0) == pytest.approx(whole.query(110.0))


def test_merge_all_single_summary(paper_decay):
    only = DecayedCount(paper_decay)
    only.update(105)
    assert merge_all([only]) is only


def test_merge_all_empty_rejected():
    with pytest.raises(MergeError, match="empty iterable"):
        merge_all([])


def test_merge_all_empty_generator_rejected():
    with pytest.raises(MergeError, match="at least one summary"):
        merge_all(summary for summary in [])


def test_merge_all_propagates_incompatibility(paper_decay):
    left = DecayedSum(paper_decay)
    left.update(105, 1.0)
    right = DecayedCount(paper_decay)
    right.update(105)
    with pytest.raises(MergeError):
        merge_all([left, right])


def test_merge_all_reports_failing_element_index(paper_decay):
    # Three compatible sums, then a count at position 3: the error must
    # name the element that broke the fold, not just the incompatibility.
    sites = [DecayedSum(paper_decay) for __ in range(3)]
    bad = DecayedCount(paper_decay)
    bad.update(105)
    with pytest.raises(MergeError, match=r"failed at element 3") as excinfo:
        merge_all([*sites, bad])
    # The original incompatibility is chained for debugging.
    assert isinstance(excinfo.value.__cause__, MergeError)


def test_merge_all_reports_first_incompatible_mid_stream(paper_decay):
    left = DecayedSum(paper_decay)
    middle = DecayedCount(paper_decay)
    right = DecayedSum(paper_decay)
    with pytest.raises(MergeError, match=r"failed at element 1"):
        merge_all([left, middle, right])


def test_protocol_recognizes_library_summaries(paper_decay):
    assert isinstance(DecayedSum(paper_decay), Mergeable)


def make_records(n, keys=("a", "b", "c"), seed=1):
    rng = random.Random(seed)
    return [
        (float(t), rng.choice(keys), rng.uniform(0.0, 10.0))
        for t in range(1, n + 1)
    ]


def split_records(records, pieces):
    size = max(1, len(records) // pieces)
    return [records[i:i + size] for i in range(0, len(records), size)]


def fold_per_key(splits, factory, update):
    """MapReduce with a dict: each split maps to per-key summaries, and
    each key's summaries fold with merge_all."""
    partials: dict[str, list] = {}
    for split in splits:
        mapped = {}
        for record in split:
            if record[1] not in mapped:
                mapped[record[1]] = factory()
            update(mapped[record[1]], record)
        for key, summary in mapped.items():
            partials.setdefault(key, []).append(summary)
    return {key: merge_all(summaries) for key, summaries in partials.items()}


class TestPartitionAndFold:
    def test_matches_sequential_per_key(self):
        decay = ForwardDecay(PolynomialG(2.0), landmark=0.0)
        records = make_records(600)
        result = fold_per_key(
            split_records(records, 4),
            lambda: DecayedSum(decay),
            lambda s, r: s.update(r[0], r[2]),
        )
        query_time = records[-1][0]
        assert sorted(result) == ["a", "b", "c"]
        for key in ("a", "b", "c"):
            sequential = DecayedSum(decay)
            for t, k, v in records:
                if k == key:
                    sequential.update(t, v)
            assert result[key].query(query_time) == pytest.approx(
                sequential.query(query_time)
            )

    @pytest.mark.parametrize("pieces", [1, 3, 7])
    def test_split_boundaries_irrelevant(self, pieces):
        decay = ForwardDecay(ExponentialG(alpha=0.01), landmark=0.0)
        records = make_records(400, seed=2)
        query_time = records[-1][0]
        whole = fold_per_key(
            [records], lambda: DecayedCount(decay), lambda s, r: s.update(r[0])
        )
        result = fold_per_key(
            split_records(records, pieces),
            lambda: DecayedCount(decay),
            lambda s, r: s.update(r[0]),
        )
        assert result.keys() == whole.keys()
        for key, summary in whole.items():
            assert result[key].query(query_time) == pytest.approx(
                summary.query(query_time), rel=1e-9
            )

    def test_out_of_order_splits(self):
        """Splits may interleave in time (e.g. per-host log shards)."""
        decay = ForwardDecay(PolynomialG(1.0), landmark=0.0)
        records = make_records(300, seed=3)
        by_parity = [
            [r for i, r in enumerate(records) if i % 2 == 0],
            [r for i, r in enumerate(records) if i % 2 == 1][::-1],  # reversed!
        ]
        result = fold_per_key(
            by_parity,
            lambda: DecayedSum(decay),
            lambda s, r: s.update(r[0], r[2]),
        )
        sequential = DecayedSum(decay)
        for t, __, v in records:
            sequential.update(t, v)
        query_time = records[-1][0]
        total = sum(summary.query(query_time) for summary in result.values())
        assert total == pytest.approx(sequential.query(query_time))

    def test_heavy_hitters_across_sites(self):
        decay = ForwardDecay(ExponentialG(alpha=0.01), landmark=0.0)
        stream = zipf_stream(4_000, num_values=100, exponent=1.4, seed=21)
        sites = [DecayedHeavyHitters(decay, epsilon=0.01) for __ in range(3)]
        sequential = DecayedHeavyHitters(decay, epsilon=0.01)
        for t, v in stream:
            sites[hash(v) % 3].update(v, t)  # every item on one site
            sequential.update(v, t)
        merged = merge_all(sites)
        query_time = stream[-1][0]
        assert [h.item for h in merged.top_k(3, query_time)] == [
            h.item for h in sequential.top_k(3, query_time)
        ]

    def test_later_summaries_are_left_as_they_were(self):
        decay = ForwardDecay(PolynomialG(1.0), landmark=0.0)
        sites = [DecayedSum(decay) for __ in range(3)]
        for index, t in enumerate(range(1, 31)):
            sites[index % 3].update(float(t), 1.0)
        before = [site.to_bytes() for site in sites[1:]]
        merged = merge_all(sites)
        assert merged.items_processed == 30
        assert [site.to_bytes() for site in sites[1:]] == before
