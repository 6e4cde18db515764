"""Blocking-quality statistics of the pipeline's candidate generation stage."""

from __future__ import annotations

import pytest

from repro.data.records import Record
from repro.pipeline import CandidateGenerationStage, InvertedTokenIndex


def _record(record_id, source, name, entity_id=None):
    return Record(record_id=record_id, source=source,
                  attributes={"name": name}, entity_id=entity_id)


class _CountingIndex(InvertedTokenIndex):
    """An InvertedTokenIndex that counts how often blocking actually runs."""

    def __init__(self):
        super().__init__(attributes=["name"])
        self.calls = 0

    def candidate_pairs(self, cross_source_only=False):
        self.calls += 1
        return super().candidate_pairs(cross_source_only=cross_source_only)


class TestCandidateGeneratorStats:
    @pytest.fixture()
    def stage(self):
        stage = CandidateGenerationStage(indexes=[_CountingIndex()])
        stage.add_records([
            _record("a1", "s1", "neil diamond", entity_id="e1"),
            _record("a2", "s2", "neil diamond", entity_id="e1"),
            _record("b1", "s1", "aretha franklin", entity_id="e2"),
            _record("b2", "s2", "aretha franklin", entity_id="e2"),
            _record("c1", "s1", "completely unrelated", entity_id="e3"),
            _record("c2", "s2", "something else", entity_id="e3"),
        ])
        return stage

    @pytest.fixture()
    def stats(self, stage):
        return stage.generate().stats

    def test_precomputed_candidates_avoid_regeneration(self, stage):
        # The quality stats reuse the dedupe keys of the one blocking pass.
        result = stage.generate()
        assert stage.indexes[0].calls == 1
        assert result.stats["num_candidates"] == len(result.pairs)
        assert result.stats["recall"] == pytest.approx(2 / 3)

    def test_stats_fields(self, stats):
        # e1 and e2 pairs are found, e3's is not: recall 2/3.
        assert stats["recall"] == pytest.approx(2 / 3)
        assert stats["num_true_pairs"] == 3
        assert stats["num_candidates"] == 2
        # 3 records per source => 9 cross-source pairs.
        assert stats["possible_pairs"] == 9
        assert stats["reduction_ratio"] == pytest.approx(2 / 9)
        assert stats["pair_reduction_factor"] == pytest.approx(9 / 2)

    def test_recall_keeps_float_contract(self, stats):
        assert isinstance(stats["recall"], float)
