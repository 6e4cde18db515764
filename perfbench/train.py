"""Adaptive training workload: ``train_adapt``.

Fits ``adamel-hyb`` from cold on a Music adaptation scenario (labeled
source pairs, a 40-pair support set, unlabeled target pairs) and scores the
held-out target test pairs, whose labels only the benchmark holds.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core.variants import create_variant
from repro.features.encoder import PairEncoder

from common import (VARIANT, Checks, Tracer, adaptation_scenario, cold_start, deadline_loop,
                    median, model_config, patched)

MIN_REPS = 3
# Rep r fits scenario r % SCENARIOS of the seed, and quality is the mean
# PRAUC over the SCENARIOS scenarios: the PRAUC of a single scenario ranged
# over 0.70-0.83 between seeds.
SCENARIOS = 3
# Building the scenario takes ~0.2 s, so it is timed several times per rep
# and the median reported.
SETUP_SAMPLES = 3


def average_precision(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the precision-recall curve (step-wise average precision)."""
    order = np.argsort(-scores, kind="stable")
    hits = labels[order] == 1
    if not hits.any():
        return 0.0
    precision = np.cumsum(hits) / np.arange(1, len(hits) + 1)
    return float(precision[hits].sum() / hits.sum())


def run_train_adapt(seed: int, seconds: float, trace: bool, work: Path,
                    cache: Path) -> dict:
    checks = Checks()
    seen: Dict[str, object] = {}
    tracer = Tracer()
    setup, walls, traced_walls = [], [], []
    prauc: Dict[str, float] = {}
    layers: List[Dict[str, float]] = []
    attempted = 0
    for rep in deadline_loop(seconds, MIN_REPS if not trace else 2 * MIN_REPS - 2):
        attempted += 1
        number = rep % SCENARIOS
        for _ in range(SETUP_SAMPLES):
            cold_start()
            started = time.perf_counter()
            scenario, test_pairs, labels = adaptation_scenario(seed * SCENARIOS + number)
            setup.append(time.perf_counter() - started)
        if trace and rep % 2 == 1:
            encode = tracer.wrap("features.encoder.encode", PairEncoder.encode,
                                 count=lambda args, kwargs, batch: len(batch.features))
            with patched(PairEncoder, "encode", encode), tracer.span("bench.rep") as root:
                trainer = create_variant(VARIANT, model_config(profile_steps=True))
                with tracer.span("core.trainer.fit") as fit:
                    history = trainer.fit(scenario)
            traced_walls.append(root.seconds)
            within = tracer.descendants(root)
            encode_s = tracer.total("features.encoder.encode", within)
            encoded = sum(span.attrs["items"] for span in
                          tracer.named("features.encoder.encode", within))
            steps = history.step_seconds or []
            checks.same(seen, f"core.trainer.steps[{number}]", len(steps))
            layers.append({
                "features.encoder.encode_s": encode_s,
                "features.encoder.pairs_per_s": encoded / encode_s if encode_s else 0.0,
                "features.cache.hit_ratio": float(history.encoder_cache_hit_rate or 0.0),
                "core.trainer.fit_s": tracer.self_seconds(fit),
                "core.trainer.steps": float(len(steps)),
                "core.trainer.step_p50_ms": median(steps) * 1e3,
                "trace.coverage_ratio": tracer.coverage(root),
            })
        else:
            started = time.perf_counter()
            trainer = create_variant(VARIANT, model_config())
            history = trainer.fit(scenario)
            walls.append(time.perf_counter() - started)
        checks.require(len(history.total_loss) == trainer.config.epochs,
                       f"fit ran {len(history.total_loss)} epochs, "
                       f"expected {trainer.config.epochs}")
        checks.require(bool(np.isfinite(history.total_loss).all()), "training loss is not finite")
        value = average_precision(labels, trainer.predict_proba(test_pairs))
        checks.require(value > float(labels.mean()),
                       f"target PRAUC {value:.4f} is no better than the positive rate")
        checks.same(prauc, f"target_prauc[{number}]", value)

    metrics = {"setup_s": median(setup), "op_p50_ms": median(walls) * 1e3,
               "quality": float(np.mean(list(prauc.values())))}
    layer = {}
    if trace:
        layer = {name: median([entry[name] for entry in layers]) for name in layers[0]}
        layer["trace.overhead_ratio"] = median(traced_walls) / median(walls)
    return dict(metrics=metrics, layers=layer, attempted=attempted, checks=checks,
                tracer=tracer, notes=[f"{len(scenario.source)} source, "
                                      f"{len(scenario.support)} support, "
                                      f"{len(scenario.target)} target, "
                                      f"{len(test_pairs)} test pairs"])
