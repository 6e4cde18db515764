"""Tests for the inference subsystem: model bundles and batched serving."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AdaMELBase, AdaMELHybrid, AdaMELZero
from repro.features import EncodingCache
from repro import obs
from repro.infer import MODEL_FORMAT_VERSION, BatchedPredictor, load_model, save_model
from repro.text import HashedEmbedder, Tokenizer, TokenEmbedder
from repro.utils.serialization import load_json, save_json


@pytest.fixture(scope="module")
def fitted_trainer(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return trainer


@pytest.fixture(scope="module")
def test_pairs(music_scenario):
    return list(music_scenario.test.pairs)


class TestModelBundle:
    def test_round_trip_is_bit_exact(self, fitted_trainer, test_pairs, tmp_path):
        bundle = save_model(fitted_trainer, tmp_path / "bundle")
        loaded = load_model(bundle)
        expected = fitted_trainer.predict_proba(test_pairs)
        actual = loaded.predict_proba(test_pairs)
        assert np.array_equal(expected, actual)

    def test_round_trip_preserves_weights_exactly(self, fitted_trainer, tmp_path):
        bundle = save_model(fitted_trainer, tmp_path / "bundle")
        loaded = load_model(bundle)
        saved_state = fitted_trainer.network.state_dict()
        loaded_state = loaded.network.state_dict()
        assert set(saved_state) == set(loaded_state)
        for name in saved_state:
            assert np.array_equal(saved_state[name], loaded_state[name]), name

    def test_round_trip_preserves_variant_and_config(self, fitted_trainer, tmp_path):
        bundle = save_model(fitted_trainer, tmp_path / "bundle")
        loaded = load_model(bundle)
        assert loaded.variant == fitted_trainer.variant
        assert loaded.config == fitted_trainer.config
        assert loaded.schema == fitted_trainer.schema
        assert isinstance(loaded, AdaMELHybrid)

    def test_loaded_model_serves_attention_and_importance(self, fitted_trainer, test_pairs,
                                                          tmp_path):
        loaded = load_model(save_model(fitted_trainer, tmp_path / "bundle"))
        scores = loaded.attention_scores(test_pairs[:8])
        assert scores.shape == (8, loaded.encoder.num_features)
        expected = fitted_trainer.attention_scores(test_pairs[:8])
        assert np.array_equal(expected, scores)

    def test_unfitted_trainer_rejected(self, fast_config, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_model(AdaMELBase(fast_config), tmp_path / "nope")

    def test_unknown_format_version_rejected(self, fitted_trainer, tmp_path):
        bundle = save_model(fitted_trainer, tmp_path / "bundle")
        meta = load_json(bundle / "model.json")
        meta["format_version"] = MODEL_FORMAT_VERSION + 1
        save_json(meta, bundle / "model.json")
        with pytest.raises(ValueError, match="format version"):
            load_model(bundle)

    def test_custom_embedder_rejected_with_guidance(self, music_scenario, fast_config,
                                                    tmp_path):
        embedder = HashedEmbedder(dim=fast_config.embedding_dim,
                                  tokenizer=Tokenizer(crop_size=fast_config.crop_size))

        class OpaqueEmbedder(TokenEmbedder):
            dim = fast_config.embedding_dim

            def embed_token(self, token):
                return embedder.embed_token(token)

        trainer = AdaMELZero(fast_config, embedder=OpaqueEmbedder())
        trainer.fit(music_scenario)
        with pytest.raises(TypeError, match="HashedEmbedder"):
            save_model(trainer, tmp_path / "nope")


class TestBatchedPredictor:
    def test_batched_equals_one_by_one(self, fitted_trainer, test_pairs):
        predictor = BatchedPredictor.from_trainer(fitted_trainer, micro_batch_size=7)
        batched = predictor.predict_proba(test_pairs)
        one_by_one = np.concatenate([predictor.predict_proba([pair]) for pair in test_pairs])
        np.testing.assert_allclose(batched, one_by_one, rtol=1e-9, atol=1e-12)

    def test_micro_batch_size_does_not_change_results(self, fitted_trainer, test_pairs):
        small = BatchedPredictor.from_trainer(fitted_trainer, micro_batch_size=3)
        large = BatchedPredictor.from_trainer(fitted_trainer, micro_batch_size=1000)
        np.testing.assert_allclose(small.predict_proba(test_pairs),
                                   large.predict_proba(test_pairs),
                                   rtol=1e-9, atol=1e-12)

    def test_stream_scores_match_bulk(self, fitted_trainer, test_pairs):
        predictor = BatchedPredictor.from_trainer(fitted_trainer)
        streamed = list(predictor.predict_proba_stream(iter(test_pairs), chunk_size=9))
        assert [len(chunk) for chunk, _ in streamed[:-1]] == [9] * (len(streamed) - 1)
        assert [pair for chunk, _ in streamed for pair in chunk] == list(test_pairs)
        scores = np.concatenate([probabilities for _, probabilities in streamed])
        np.testing.assert_allclose(scores, predictor.predict_proba(test_pairs),
                                   rtol=1e-9, atol=1e-12)

    def test_stream_rejects_invalid_chunk_size(self, fitted_trainer):
        predictor = BatchedPredictor.from_trainer(fitted_trainer)
        with pytest.raises(ValueError, match="chunk_size"):
            next(predictor.predict_proba_stream([], chunk_size=0))

    def test_matches_trainer_predictions(self, fitted_trainer, test_pairs):
        predictor = BatchedPredictor.from_trainer(fitted_trainer)
        np.testing.assert_allclose(predictor.predict_proba(test_pairs),
                                   fitted_trainer.predict_proba(test_pairs),
                                   rtol=1e-9, atol=1e-12)

    def test_load_from_bundle(self, fitted_trainer, test_pairs, tmp_path):
        bundle = save_model(fitted_trainer, tmp_path / "bundle")
        predictor = BatchedPredictor.load(bundle, micro_batch_size=16,
                                          cache=EncodingCache())
        np.testing.assert_allclose(predictor.predict_proba(test_pairs),
                                   fitted_trainer.predict_proba(test_pairs),
                                   rtol=1e-9, atol=1e-12)

    def test_empty_predict(self, fitted_trainer):
        predictor = BatchedPredictor.from_trainer(fitted_trainer)
        assert predictor.predict_proba([]).shape == (0,)

    def test_predict_threshold(self, fitted_trainer, test_pairs):
        predictor = BatchedPredictor.from_trainer(fitted_trainer)
        hard = predictor.predict(test_pairs, threshold=0.5)
        assert set(np.unique(hard)).issubset({0, 1})

    def test_training_mode_restored(self, fitted_trainer, test_pairs):
        fitted_trainer.network.train(True)
        predictor = BatchedPredictor.from_trainer(fitted_trainer)
        predictor.predict_proba(test_pairs[:4])
        assert fitted_trainer.network.training is True

    def test_stats_track_batches(self, fitted_trainer, test_pairs):
        predictor = BatchedPredictor.from_trainer(fitted_trainer, micro_batch_size=4)
        predictor.predict_proba(test_pairs[:10])
        stats = predictor.stats()
        assert stats["requests_served"] == 10
        assert stats["batches_run"] == 3

    @pytest.mark.parametrize("method", ["predict_proba", "attention_scores"])
    def test_telemetry_counts_every_micro_batch(self, fitted_trainer, test_pairs,
                                                method):
        # Both scoring methods share one micro-batch loop, so stats() and
        # the infer_* instruments agree for either.
        predictor = BatchedPredictor.from_trainer(fitted_trainer, micro_batch_size=4)
        with obs.telemetry() as session:
            getattr(predictor, method)(test_pairs[:10])
        series = {entry["name"]: entry for entry in session.registry.snapshot()}
        assert series["infer_batches_total"]["value"] == 3
        assert series["infer_requests_total"]["value"] == 10
        assert predictor.stats()["batches_run"] == 3

    def test_invalid_micro_batch_size(self, fitted_trainer):
        with pytest.raises(ValueError):
            BatchedPredictor.from_trainer(fitted_trainer, micro_batch_size=0)

    def test_unfitted_trainer_rejected(self, fast_config):
        with pytest.raises(ValueError, match="fitted"):
            BatchedPredictor.from_trainer(AdaMELBase(fast_config))
