"""Batched inference over trained AdaMEL models.

``BatchedPredictor`` serves matching probabilities for many target domains
without retraining: prediction requests are micro-batched and executed as
fused forward passes under ``no_grad``, reusing the process-wide encoding
cache so repeated pairs are never re-encoded.

Request queueing belongs to :class:`repro.serve.RequestCoalescer`, which
fuses concurrent callers' pairs into one ``predict_proba`` call.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from ..core.trainer import AdaMELTrainer
from ..data.records import EntityPair
from ..features.cache import EncodingCache
from ..features.encoder import PairEncoder
from ..nn import no_grad
from ..obs import BoundHandles, DEFAULT_SIZE_BUCKETS
from .serialization import load_model

__all__ = ["BatchedPredictor"]

DEFAULT_MICRO_BATCH_SIZE = 256


class _PredictorInstruments(NamedTuple):
    requests: object
    batches: object
    batch_pairs: object


def _bind_predictor_instruments(registry) -> _PredictorInstruments:
    return _PredictorInstruments(
        requests=registry.counter("infer_requests_total",
                                  "Pairs scored through the predictor"),
        batches=registry.counter("infer_batches_total",
                                 "Fused forward passes run"),
        batch_pairs=registry.histogram("infer_batch_pairs",
                                       "Pairs per fused forward pass",
                                       buckets=DEFAULT_SIZE_BUCKETS),
    )


class BatchedPredictor:
    """Micro-batched, no-grad inference front end for a fitted AdaMEL model.

    Parameters
    ----------
    encoder, network:
        The fitted pair encoder and network (for example from a loaded model
        bundle or a trained :class:`~repro.core.trainer.AdaMELTrainer`).
    micro_batch_size:
        Maximum number of pairs per fused forward pass.  Batched predictions
        are numerically equal to one-by-one predictions; micro-batching only
        bounds peak memory while keeping the forward pass fused.

    The forward pass is **not** re-entrant (autograd mode is process-wide),
    so concurrent ``predict_proba`` calls from several threads must be
    serialized by the caller — see :class:`repro.serve.RequestCoalescer`,
    which funnels all scoring through one executor thread.
    """

    def __init__(self, encoder: PairEncoder, network,
                 micro_batch_size: int = DEFAULT_MICRO_BATCH_SIZE) -> None:
        if micro_batch_size <= 0:
            raise ValueError(f"micro_batch_size must be positive, got {micro_batch_size}")
        self.encoder = encoder
        self.network = network
        self.micro_batch_size = micro_batch_size
        self.requests_served = 0
        self.batches_run = 0
        self._obs = BoundHandles(_bind_predictor_instruments)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trainer(cls, trainer: AdaMELTrainer,
                     micro_batch_size: int = DEFAULT_MICRO_BATCH_SIZE
                     ) -> "BatchedPredictor":
        """Wrap a fitted trainer without copying its model."""
        if trainer.network is None or trainer.encoder is None:
            raise ValueError("the trainer must be fitted before wrapping it")
        return cls(trainer.encoder, trainer.network, micro_batch_size=micro_batch_size)

    @classmethod
    def load(cls, path: Union[str, Path], micro_batch_size: int = DEFAULT_MICRO_BATCH_SIZE,
             cache: Optional[EncodingCache] = None) -> "BatchedPredictor":
        """Load a saved model bundle (see :func:`repro.infer.save_model`)."""
        trainer = load_model(path, cache=cache)
        return cls.from_trainer(trainer, micro_batch_size=micro_batch_size)

    # ------------------------------------------------------------------ #
    # Bulk inference
    # ------------------------------------------------------------------ #
    def _micro_batched(self, pairs: Sequence[EntityPair],
                       run: Callable[[np.ndarray], np.ndarray]) -> List[np.ndarray]:
        """Apply ``run`` to each micro-batch's features in eval/no-grad mode,
        counting batches and requests in :meth:`stats` and the telemetry."""
        outputs: List[np.ndarray] = []
        instruments = self._obs.get()
        was_training = self.network.training
        self.network.eval()
        try:
            with no_grad():
                for start in range(0, len(pairs), self.micro_batch_size):
                    chunk = pairs[start:start + self.micro_batch_size]
                    outputs.append(run(self.encoder.encode(chunk).features))
                    self.batches_run += 1
                    if instruments is not None:
                        instruments.batches.inc()
                        instruments.batch_pairs.observe(len(chunk))
        finally:
            self.network.train(was_training)
        self.requests_served += len(pairs)
        if instruments is not None:
            instruments.requests.inc(len(pairs))
        return outputs

    def predict_proba(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        """Matching probabilities for ``pairs``, computed in micro-batches."""
        pairs = list(pairs)
        if not pairs:
            return np.zeros(0)
        return np.concatenate(self._micro_batched(
            pairs, lambda features: np.atleast_1d(
                self.network.forward(features).probabilities.data.copy())))

    def predict(self, pairs: Sequence[EntityPair], threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at the given probability threshold."""
        return (self.predict_proba(pairs) >= threshold).astype(np.int64)

    def predict_proba_stream(self, pairs: Iterable[EntityPair], chunk_size: int = 2048
                             ) -> Iterator[Tuple[List[EntityPair], np.ndarray]]:
        """Score an arbitrarily large pair stream in bounded chunks.

        Yields ``(chunk, probabilities)`` tuples in stream order; at most
        ``chunk_size`` pairs are materialised at a time, so candidate streams
        larger than memory (e.g. from the linkage pipeline's blocking stage)
        can be scored without ever holding the full pair list.
        """
        if chunk_size <= 0:
            # Validate eagerly — inside the generator body the error would
            # only surface at the first next(), far from the call site.
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")

        def _generate() -> Iterator[Tuple[List[EntityPair], np.ndarray]]:
            iterator = iter(pairs)
            while True:
                chunk = list(islice(iterator, chunk_size))
                if not chunk:
                    return
                yield chunk, self.predict_proba(chunk)

        return _generate()

    def attention_scores(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        """Attention vectors ``f(x)`` (shape ``(N, F)``), micro-batched."""
        pairs = list(pairs)
        if not pairs:
            return np.zeros((0, self.encoder.num_features))
        return np.concatenate(self._micro_batched(pairs, self.network.attention_numpy),
                              axis=0)

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Serving counters (requests, fused batches, micro-batch size)."""
        return {
            "requests_served": self.requests_served,
            "batches_run": self.batches_run,
            "micro_batch_size": self.micro_batch_size,
        }

    def __repr__(self) -> str:
        return (f"BatchedPredictor(micro_batch_size={self.micro_batch_size}, "
                f"served={self.requests_served})")
