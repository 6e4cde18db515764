"""Tests for domains, scenarios, sampling, splits, blocking and storage."""

import numpy as np
import pytest

from repro.data import (
    BatchSampler,
    EntityPair,
    MELScenario,
    PairCollection,
    Record,
    SourceDomain,
    SupportSet,
    TargetDomain,
    read_pair_labels_csv,
    read_pairs_jsonl,
    read_records_csv,
    sample_balanced,
    sample_support_set,
    split_by_sources,
    stratified_split,
    train_test_split,
    write_pair_labels_csv,
    write_pairs_jsonl,
    write_records_csv,
)
from repro.pipeline import CandidateGenerationStage, InvertedTokenIndex, record_tokens


def _make_pair(i: int, label, source_left="s1", source_right="s2") -> EntityPair:
    left = Record(record_id=f"l{i}", source=source_left,
                  attributes={"title": f"song {i}", "artist": "Neil Diamond"}, entity_id=f"e{i}")
    right = Record(record_id=f"r{i}", source=source_right,
                   attributes={"title": f"song {i}", "artist": "N. D."}, entity_id=f"e{i}")
    return EntityPair(left=left, right=right, label=label)


@pytest.fixture
def labeled_pairs():
    return [_make_pair(i, label=i % 2) for i in range(20)]


class TestPairCollections:
    def test_positive_rate(self, labeled_pairs):
        collection = PairCollection(labeled_pairs)
        assert collection.positive_rate() == pytest.approx(0.5)

    def test_source_domain_requires_labels(self, labeled_pairs):
        with pytest.raises(ValueError):
            SourceDomain(labeled_pairs + [_make_pair(99, None)])

    def test_target_domain_strips_labels(self, labeled_pairs):
        target = TargetDomain(labeled_pairs)
        assert all(pair.label is None for pair in target)

    def test_support_set_requires_labels(self):
        with pytest.raises(ValueError):
            SupportSet([_make_pair(0, None)])

    def test_filter_sources_modes(self, labeled_pairs):
        mixed = labeled_pairs + [_make_pair(100, 1, "s3", "s4")]
        collection = PairCollection(mixed)
        assert len(collection.filter_sources(["s3"], mode="any")) == 1
        assert len(collection.filter_sources(["s1", "s2"], mode="all")) == 20

    def test_summary_keys(self, labeled_pairs):
        summary = PairCollection(labeled_pairs).summary()
        assert {"num_pairs", "positive_rate", "num_sources"} <= set(summary)


class TestMELScenario:
    def test_scenario_sources(self, music_scenario):
        assert music_scenario.seen_sources == frozenset({"website_1", "website_2", "website_3"})
        assert music_scenario.unseen_sources
        assert music_scenario.unseen_sources.isdisjoint(music_scenario.seen_sources)

    def test_scenario_alignment(self, music_scenario):
        schema = music_scenario.aligned_schema()
        for pair in list(music_scenario.source)[:5]:
            assert set(pair.left.attribute_names()) == set(schema)

    def test_scenario_requires_source_and_test(self, labeled_pairs):
        with pytest.raises(ValueError):
            MELScenario(source=SourceDomain(labeled_pairs), target=TargetDomain(labeled_pairs),
                        test=PairCollection([]))

    def test_target_domain_unlabeled_in_scenario(self, music_scenario):
        assert all(pair.label is None for pair in music_scenario.target)

    def test_summary(self, music_scenario):
        summary = music_scenario.summary()
        assert summary["train"] == len(music_scenario.source)
        assert summary["test"] == len(music_scenario.test)


class TestSampling:
    def test_batch_sampler_covers_everything(self):
        sampler = BatchSampler(23, batch_size=5, seed=1)
        seen = np.concatenate(list(sampler))
        assert sorted(seen.tolist()) == list(range(23))
        assert len(sampler) == 5

    def test_batch_sampler_drop_last(self):
        sampler = BatchSampler(23, batch_size=5, drop_last=True, seed=1)
        assert all(len(batch) == 5 for batch in sampler)
        assert len(sampler) == 4

    def test_batch_sampler_deterministic_given_seed(self):
        batches_a = [b.tolist() for b in BatchSampler(10, 3, seed=7)]
        batches_b = [b.tolist() for b in BatchSampler(10, 3, seed=7)]
        assert batches_a == batches_b

    def test_batch_sampler_reshuffles_each_epoch(self):
        sampler = BatchSampler(50, batch_size=50, seed=3)
        epoch0 = next(iter(sampler)).tolist()
        epoch1 = next(iter(sampler)).tolist()
        assert sorted(epoch0) == sorted(epoch1) == list(range(50))
        assert epoch0 != epoch1

    def test_batch_sampler_epochs_deterministic_per_index(self):
        """Regression: epoch-k order depends only on (seed, k), so two
        samplers sharing a seed stay in lockstep even when their iterations
        interleave (previously the mutated generator state made them diverge)."""
        a = BatchSampler(30, batch_size=7, seed=11)
        b = BatchSampler(30, batch_size=7, seed=11)
        # Advance `a` two epochs before `b` starts: epochs must still line up.
        a_epochs = [[batch.tolist() for batch in a] for _ in range(3)]
        b_epochs = [[batch.tolist() for batch in b] for _ in range(3)]
        assert a_epochs == b_epochs

    def test_batch_sampler_set_epoch_resumes(self):
        reference = BatchSampler(20, batch_size=6, seed=5)
        epochs = [[batch.tolist() for batch in reference] for _ in range(3)]
        resumed = BatchSampler(20, batch_size=6, seed=5).set_epoch(2)
        assert [batch.tolist() for batch in resumed] == epochs[2]

    def test_batch_sampler_first_epoch_matches_legacy_order(self):
        """The first pass must reproduce the historical single-pass shuffle
        (a fresh generator seeded directly), keeping training traces stable."""
        legacy_rng = np.random.default_rng(9)
        expected = np.arange(12)
        legacy_rng.shuffle(expected)
        sampler = BatchSampler(12, batch_size=12, seed=9)
        assert next(iter(sampler)).tolist() == expected.tolist()

    def test_batch_sampler_accepts_external_generator(self):
        sampler = BatchSampler(15, batch_size=4, seed=np.random.default_rng(21))
        seen = np.concatenate(list(sampler))
        assert sorted(seen.tolist()) == list(range(15))

    def test_sample_balanced_counts(self, labeled_pairs):
        sampled = sample_balanced(labeled_pairs, num_positive=3, num_negative=3, seed=0)
        labels = [pair.label for pair in sampled]
        assert labels.count(1) == 3 and labels.count(0) == 3

    def test_sample_support_set_size_and_balance(self, labeled_pairs):
        support = sample_support_set(labeled_pairs, size=10, seed=0)
        assert len(support) == 10
        labels = [pair.label for pair in support]
        assert abs(labels.count(1) - labels.count(0)) <= 2

    def test_sample_support_set_empty_inputs(self):
        assert sample_support_set([], size=10) == []
        assert sample_support_set([_make_pair(0, 1)], size=0) == []


class TestSplits:
    def test_train_test_split_sizes(self, labeled_pairs):
        train, test = train_test_split(labeled_pairs, test_fraction=0.25, seed=0)
        assert len(train) + len(test) == len(labeled_pairs)
        assert len(test) == 5

    def test_stratified_split_preserves_ratio(self, labeled_pairs):
        train, test = stratified_split(labeled_pairs, test_fraction=0.3, seed=0)
        train_rate = np.mean([pair.label for pair in train])
        assert train_rate == pytest.approx(0.5, abs=0.1)

    def test_split_by_sources(self, labeled_pairs):
        mixed = labeled_pairs + [_make_pair(50, 1, "s1", "s9")]
        seen_only, touching_unseen = split_by_sources(mixed, ["s1", "s2"])
        assert len(seen_only) == 20
        assert len(touching_unseen) == 1

    def test_invalid_fraction(self, labeled_pairs):
        with pytest.raises(ValueError):
            train_test_split(labeled_pairs, test_fraction=1.5)


class TestBlocking:
    def test_token_blocker_groups_shared_tokens(self, tiny_music_corpus):
        # The token index groups records by shared name token: every pair it
        # emits shares one.
        records = tiny_music_corpus.records[:40]
        index = InvertedTokenIndex(attributes=["name"])
        index.add_records(records)
        assert index.stats()["tokens"] > 0
        pairs = index.candidate_pairs()
        assert pairs
        for left, right in pairs:
            assert (set(record_tokens(records[left], ["name"], 3))
                    & set(record_tokens(records[right], ["name"], 3)))

    def test_candidate_generator_recall(self, tiny_music_corpus):
        stage = CandidateGenerationStage(attributes=["name", "main_performer"])
        stage.add_records(tiny_music_corpus.records)
        assert stage.generate().stats["recall"] > 0.5

    def test_candidate_generator_cross_source_only(self, tiny_music_corpus):
        stage = CandidateGenerationStage(cross_source_only=True)
        stage.add_records(tiny_music_corpus.records[:60])
        candidates = stage.generate().pairs
        assert candidates
        assert all(pair.left.source != pair.right.source for pair in candidates)

    def test_candidate_generator_requires_blockers(self):
        with pytest.raises(ValueError):
            CandidateGenerationStage(indexes=[])


class TestStorage:
    def test_records_csv_roundtrip(self, tmp_path, tiny_music_corpus):
        records = tiny_music_corpus.records[:10]
        path = write_records_csv(records, tmp_path / "records.csv")
        loaded = read_records_csv(path)
        assert loaded == records

    def test_pairs_jsonl_roundtrip(self, tmp_path, tiny_music_corpus):
        pairs = tiny_music_corpus.pairs[:10]
        path = write_pairs_jsonl(pairs, tmp_path / "pairs.jsonl")
        loaded = read_pairs_jsonl(path)
        assert loaded == pairs

    def test_pair_labels_csv_roundtrip(self, tmp_path, tiny_music_corpus):
        pairs = tiny_music_corpus.pairs[:10]
        records = tiny_music_corpus.records
        path = write_pair_labels_csv(pairs, tmp_path / "labels.csv")
        loaded = read_pair_labels_csv(path, records)
        assert [(p.left.record_id, p.right.record_id, p.label) for p in loaded] == \
               [(p.left.record_id, p.right.record_id, p.label) for p in pairs]

    def test_pair_labels_unknown_record(self, tmp_path, tiny_music_corpus):
        pairs = tiny_music_corpus.pairs[:3]
        path = write_pair_labels_csv(pairs, tmp_path / "labels.csv")
        with pytest.raises(KeyError):
            read_pair_labels_csv(path, records=[])

    def test_iter_records_csv_streams_lazily(self, tmp_path, tiny_music_corpus):
        from repro.data import iter_records_csv

        records = tiny_music_corpus.records[:10]
        path = write_records_csv(records, tmp_path / "records.csv")
        stream = iter_records_csv(path)
        assert iter(stream) is stream  # a generator, not a materialised list
        assert next(stream) == records[0]
        assert list(stream) == records[1:]

    def test_iter_pairs_jsonl_streams_lazily(self, tmp_path, tiny_music_corpus):
        from repro.data import iter_pairs_jsonl

        pairs = tiny_music_corpus.pairs[:10]
        path = write_pairs_jsonl(pairs, tmp_path / "pairs.jsonl")
        stream = iter_pairs_jsonl(path)
        assert iter(stream) is stream
        assert list(stream) == pairs
