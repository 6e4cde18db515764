"""Tests for the candidate-generation indexes (MinHash-LSH, inverted, initials)."""

from __future__ import annotations

import pytest

from repro.data.records import Record
from repro.pipeline import (
    CandidateGenerationStage,
    InitialsKeyIndex,
    InvertedTokenIndex,
    MinHashLSHIndex,
    ground_truth_pairs,
    record_tokens,
)
from repro.text.tokenizer import tokenize


def _record(record_id, source, name, extra=""):
    return Record(record_id=record_id, source=source,
                  attributes={"name": name, "notes": extra})


def _id_pairs(index, cross_source_only=False):
    ids = index.record_ids
    return {tuple(sorted((ids[left], ids[right])))
            for left, right in index.candidate_pairs(cross_source_only=cross_source_only)}


class TestRecordTokens:
    def test_filters_short_tokens_and_sorts(self):
        record = _record("r1", "s1", "Neil Diamond in NY")
        assert record_tokens(record, min_token_length=3) == ["diamond", "neil"]

    def test_respects_attribute_selection(self):
        record = _record("r1", "s1", "Neil Diamond", extra="remastered")
        assert record_tokens(record, attributes=["notes"]) == ["remastered"]


class TestInvertedTokenIndex:
    def test_shared_token_pairs(self):
        index = InvertedTokenIndex()
        index.add_records([
            _record("a", "s1", "neil diamond"),
            _record("b", "s2", "neil young"),
            _record("c", "s3", "aretha franklin"),
        ])
        assert _id_pairs(index) == {("a", "b")}

    def test_cross_source_only_drops_same_source(self):
        index = InvertedTokenIndex()
        index.add_records([
            _record("a", "s1", "neil diamond"),
            _record("b", "s1", "neil young"),
        ])
        assert _id_pairs(index, cross_source_only=True) == set()
        assert _id_pairs(index) == {("a", "b")}

    def test_stop_word_postings_emit_no_pairs(self):
        index = InvertedTokenIndex(max_postings=3)
        index.add_records([_record(f"r{i}", f"s{i}", "common stopword") for i in range(6)])
        assert _id_pairs(index) == set()
        assert index.stats()["overflowed_tokens"] == 2

    def test_degenerate_max_postings_is_rejected(self):
        # A cap below 2 could never emit a pair; the index refuses it.
        with pytest.raises(ValueError, match="bucket cap"):
            InvertedTokenIndex(max_postings=1)

    def test_min_token_length_zero_still_works(self):
        # 0 means "keep every token" (identical to 1).
        index = InvertedTokenIndex(attributes=["name"], min_token_length=0)
        index.add_records([_record("a", "s1", "x y"), _record("b", "s2", "x z")])
        assert _id_pairs(index) == {("a", "b")}

    def test_matches_block_semantics(self, tiny_music_corpus):
        records = tiny_music_corpus.records
        index = InvertedTokenIndex(attributes=["name"], max_postings=50)
        index.add_records(records)
        # Reference: group records by token, skip blocks over the cap, and
        # enumerate each block's pairs directly.
        blocks = {}
        for record in records:
            for token in set(tokenize(record.value("name"))):
                if len(token) >= 3:
                    blocks.setdefault(token, []).append(record.record_id)
        expected = {tuple(sorted((block[i], block[j])))
                    for block in blocks.values() if len(block) <= 50
                    for i in range(len(block))
                    for j in range(i + 1, len(block))}
        assert _id_pairs(index) == expected

    def test_incremental_add_equals_bulk_build(self, tiny_music_corpus):
        records = tiny_music_corpus.records
        bulk = InvertedTokenIndex()
        bulk.add_records(records)
        incremental = InvertedTokenIndex()
        for start in range(0, len(records), 7):
            incremental.add_records(records[start:start + 7])
        assert _id_pairs(incremental) == _id_pairs(bulk)


class TestMinHashLSHIndex:
    def test_near_duplicates_collide(self):
        index = MinHashLSHIndex(num_perm=64, bands=16)
        index.add_records([
            _record("a", "s1", "the dark side of the moon remastered edition"),
            _record("b", "s2", "the dark side of the moon remastered"),
            _record("c", "s3", "completely different words entirely here"),
        ])
        pairs = _id_pairs(index)
        assert ("a", "b") in pairs
        assert ("a", "c") not in pairs and ("b", "c") not in pairs

    def test_incremental_add_equals_bulk_build(self, tiny_music_corpus):
        records = tiny_music_corpus.records
        bulk = MinHashLSHIndex(num_perm=64, bands=16)
        bulk.add_records(records)
        incremental = MinHashLSHIndex(num_perm=64, bands=16)
        for start in range(0, len(records), 5):
            incremental.add_records(records[start:start + 5])
        assert _id_pairs(incremental) == _id_pairs(bulk)

    def test_signatures_deterministic_across_instances(self, tiny_music_corpus):
        records = tiny_music_corpus.records[:10]
        first = MinHashLSHIndex(num_perm=32, bands=8).signatures(records)
        second = MinHashLSHIndex(num_perm=32, bands=8).signatures(records)
        assert (first == second).all()

    def test_empty_records_do_not_collide(self):
        index = MinHashLSHIndex(num_perm=32, bands=8)
        index.add_records([
            Record(record_id="a", source="s1", attributes={"name": ""}),
            Record(record_id="b", source="s2", attributes={"name": ""}),
        ])
        assert _id_pairs(index) == set()

    def test_overflowed_buckets_emit_no_pairs(self):
        index = MinHashLSHIndex(num_perm=32, bands=8, max_bucket_size=3)
        index.add_records([_record(f"r{i}", f"s{i}", "identical text value")
                           for i in range(6)])
        assert _id_pairs(index) == set()

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            MinHashLSHIndex(num_perm=10, bands=3)


class TestInitialsKeyIndex:
    def test_abbreviation_matches_full_form(self):
        index = InitialsKeyIndex()
        index.add_records([
            _record("a", "s1", "Elliott Bianchi"),
            _record("b", "s2", "E. B."),
            _record("c", "s3", "Quincy Zane"),
        ])
        assert _id_pairs(index) == {("a", "b")}

    def test_token_order_is_irrelevant(self):
        index = InitialsKeyIndex()
        index.add_records([
            _record("a", "s1", "B. L."),
            _record("b", "s2", "Louis Bowie"),
        ])
        assert _id_pairs(index) == {("a", "b")}

    def test_trailing_noise_is_tolerated(self):
        index = InitialsKeyIndex()
        index.add_records([
            _record("a", "s1", "F. G. musicien"),
            _record("b", "s2", "Freddie Gaye"),
        ])
        assert _id_pairs(index) == {("a", "b")}


class TestIngestOneAndProbe:
    """The single-record ingestion/probe path the online entity store uses."""

    @pytest.mark.parametrize("make_index", [
        lambda: InvertedTokenIndex(min_token_length=3, max_postings=3),
        lambda: MinHashLSHIndex(num_perm=32, bands=8, max_bucket_size=3, seed=7),
        lambda: InitialsKeyIndex(max_bucket_size=3),
    ], ids=["inverted", "minhash", "initials"])
    def test_ingest_one_matches_bulk_buckets(self, make_index, tiny_music_corpus):
        records = tiny_music_corpus.records
        bulk = make_index()
        bulk.add_records(records)
        streamed = make_index()
        for record in records:
            streamed.ingest_one(record)
        assert streamed._buckets == bulk._buckets
        assert streamed.record_ids == bulk.record_ids
        assert (streamed.candidate_pairs(cross_source_only=True)
                == bulk.candidate_pairs(cross_source_only=True))

    def test_emission_support_mirrors_candidate_pairs(self, tiny_music_corpus):
        # Summing per-bucket emissions minus retractions must recover exactly
        # the live candidate pairs batch emission would produce.
        from collections import Counter
        from itertools import combinations

        index = InvertedTokenIndex(min_token_length=3, max_postings=3)
        support = Counter()
        for record in tiny_music_corpus.records:
            _, emitted, retracted = index.ingest_one(record)
            for left, right in emitted:
                support[tuple(sorted((left, right)))] += 1
            for members in retracted:
                for left, right in combinations(members, 2):
                    support[tuple(sorted((left, right)))] -= 1
        live = {pair for pair, count in support.items() if count > 0}
        assert live == index.candidate_pairs(cross_source_only=False)
        assert all(count >= 0 for count in support.values())

    def test_probe_is_read_only_and_finds_co_bucketed_records(self):
        index = InvertedTokenIndex(min_token_length=3, max_postings=4)
        index.add_records([
            _record("r1", "s1", "Neil Diamond"),
            _record("r2", "s2", "neil diamond live"),
            _record("r3", "s3", "Johnny Cash"),
        ])
        probe = _record("px", "s9", "diamond anthology")
        assert index.probe(probe) == {0, 1}
        assert len(index) == 3  # probing never registers the record

    def test_probe_skips_overflowed_buckets(self):
        index = InvertedTokenIndex(min_token_length=3, max_postings=2)
        index.add_records([_record(f"r{i}", f"s{i}", "diamond") for i in range(4)])
        assert index.probe(_record("px", "s9", "diamond")) == set()


class TestLSHRecallVsTokenIndex:
    def test_index_union_beats_single_token_index_at_equal_budget(
            self, tiny_music_corpus):
        """The index union must dominate single-attribute token blocking:
        at least as much recall from at most as many candidates."""
        records = tiny_music_corpus.records
        truth = ground_truth_pairs(records)
        assert truth

        token_index = InvertedTokenIndex(attributes=["name"], max_postings=50)
        token_index.add_records(records)
        token_pairs = _id_pairs(token_index, cross_source_only=True)

        stage = CandidateGenerationStage()
        stage.add_records(records)
        result = stage.generate()
        stage_pairs = {tuple(sorted((pair.left.record_id, pair.right.record_id)))
                       for pair in result.pairs}

        stage_recall = len(truth & stage_pairs) / len(truth)
        token_recall = len(truth & token_pairs) / len(truth)
        assert stage_recall >= token_recall
        assert stage_recall >= 0.95
