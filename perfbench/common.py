"""Shared pieces of the benchmark: inputs, statistics and the span tracer.

Everything here belongs to the benchmark, not to the program under test.
Inputs are generated from ``--seed`` with the program's own synthetic
generators; the benchmark keeps the ground truth (``entity_id``, pair labels)
and hands the program copies with it stripped.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import json
import os
import reprlib
import resource
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.runner import reset_process_caches
from repro.core.variants import create_variant
from repro.data.domain import MELScenario, PairCollection, SourceDomain, SupportSet, TargetDomain
from repro.data.records import EntityPair, Record
from repro.experiments.scenarios import ExperimentScale, build_corpus, build_scenario
from repro.infer.serialization import save_model

SOURCES = Path(__file__).resolve().parent.parent / "src" / "repro"

# The linkage corpus: the Music generator at 1,500 entities gives ~5.3k
# records over 7 sources, large enough that per-record work outweighs the
# fixed costs that dominate the 111-150 record smoke corpora.
CORPUS_ENTITIES = 1500
# The adaptation scenario: 300 entities give ~700 labeled source pairs,
# 40 support pairs and ~2.5k unlabeled target pairs.  The test split is
# three times the experiment default, so PRAUC averages over 600 pairs.
SCENARIO_SCALE = ExperimentScale(music_entities=300, support_size=40, test_size=600)
TRAIN_EPOCHS = 20
VARIANT = "adamel-hyb"
# Model initialisation is program configuration, not input: it stays fixed
# while --seed varies the generated data.
MODEL_SEED = 0
# The linkage and serving workloads load one deployed model, trained on the
# scenario of this seed whatever --seed is.  Bundles trained per seed differ
# twofold in how many pairs they score as matches, which moved upsert
# latency by 2x between seeds; a fixed model leaves only the data to vary.
BUNDLE_SCENARIO_SEED = 0


def model_config(**overrides):
    """The ``bench``-scale AdaMEL config every workload trains with."""
    return SCENARIO_SCALE.adamel_config(epochs=TRAIN_EPOCHS, seed=MODEL_SEED, **overrides)


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def strip_record(record: Record) -> Record:
    """The record as the program sees it: no ``entity_id``."""
    return Record(record_id=record.record_id, source=record.source,
                  attributes=dict(record.attributes), entity_id=None,
                  entity_type=record.entity_type)


def corpus_records(seed: int) -> Tuple[List[Record], Dict[str, str]]:
    """Stripped corpus records plus the benchmark's ``record_id -> entity`` truth."""
    corpus = build_corpus("music3k", "artist",
                          scale=ExperimentScale(music_entities=CORPUS_ENTITIES), seed=seed)
    truth = {record.record_id: record.entity_id for record in corpus.records}
    return [strip_record(record) for record in corpus.records], truth


def adaptation_scenario(seed: int) -> Tuple[MELScenario, List[EntityPair], np.ndarray]:
    """The training scenario with records stripped and test labels withheld.

    Returns ``(scenario, test_pairs, test_labels)``: the scenario carries the
    labeled source and support pairs the variant trains on and unlabeled
    target and test pairs; the benchmark keeps the test labels.
    """
    scenario = build_scenario("music3k", "artist", mode="overlapping",
                              scale=SCENARIO_SCALE, seed=seed)
    stripped: Dict[str, Record] = {}

    def strip_pair(pair: EntityPair, keep_label: bool) -> EntityPair:
        left = stripped.setdefault(pair.left.record_id, strip_record(pair.left))
        right = stripped.setdefault(pair.right.record_id, strip_record(pair.right))
        return EntityPair(left=left, right=right,
                          label=pair.label if keep_label else None,
                          pair_id=pair.pair_id, weight=pair.weight)

    test_pairs = [strip_pair(pair, keep_label=False) for pair in scenario.test]
    labels = np.array([pair.label for pair in scenario.test], dtype=np.int64)
    support = (SupportSet([strip_pair(pair, True) for pair in scenario.support],
                          name=scenario.support.name)
               if scenario.support is not None else None)
    program_view = MELScenario(
        source=SourceDomain([strip_pair(pair, True) for pair in scenario.source],
                            name=scenario.source.name),
        target=TargetDomain([strip_pair(pair, False) for pair in scenario.target],
                            name=scenario.target.name),
        test=PairCollection(test_pairs, name=scenario.test.name),
        support=support, name=scenario.name, entity_type=scenario.entity_type)
    return program_view, test_pairs, labels


def model_bundle(cache: Path) -> Path:
    """The saved model every linkage and serving workload loads.

    The bundle depends only on the program and this benchmark, so it is
    trained once per checkout and kept under ``cache``, keyed by a hash of
    both sources.
    """
    digest = hashlib.sha256()
    for path in sorted(SOURCES.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        digest.update(str(path.relative_to(SOURCES.parent.parent)).encode())
        digest.update(path.read_bytes())
    bundle = cache / f"bundle-{digest.hexdigest()[:16]}"
    if not bundle.is_dir():
        scenario, _, _ = adaptation_scenario(BUNDLE_SCENARIO_SEED)
        trainer = create_variant(VARIANT, model_config())
        trainer.fit(scenario)
        staging = cache / f"staging-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        save_model(trainer, staging)
        os.replace(staging, bundle)
    return bundle


def cold_start() -> None:
    """Drop the program's process-wide memos and collect garbage before a rep."""
    reset_process_caches()
    gc.collect()


# --------------------------------------------------------------------------- #
# Statistics and checks
# --------------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64))) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def pairwise_f1(clusters: Sequence[Sequence[str]], truth: Dict[str, str]) -> float:
    """Pairwise F1 of a clustering against the benchmark's entity truth."""
    def pair_count(sizes: Iterable[int]) -> int:
        return sum(size * (size - 1) // 2 for size in sizes)

    predicted = pair_count(len(members) for members in clusters)
    actual = pair_count(np.unique(list(truth.values()), return_counts=True)[1].tolist())
    joint: Dict[Tuple[int, str], int] = {}
    for cluster_id, members in enumerate(clusters):
        for record_id in members:
            key = (cluster_id, truth[record_id])
            joint[key] = joint.get(key, 0) + 1
    true_positive = pair_count(joint.values())
    if not predicted or not actual or not true_positive:
        return 0.0
    precision = true_positive / predicted
    recall = true_positive / actual
    return 2 * precision * recall / (precision + recall)


class Checks:
    """Collects failed output checks; the run is correct when none failed."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def same(self, seen: Dict[str, object], name: str, value: object) -> None:
        """``value`` must equal the one recorded under ``name`` by earlier reps."""
        if name in seen:
            self.require(seen[name] == value, f"{name} changed between reps: "
                                              f"{reprlib.repr(seen[name])} != "
                                              f"{reprlib.repr(value)}")
        else:
            seen[name] = value


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
@dataclass
class Span:
    """One timed call: a name, an interval, its parent and its request."""

    span_id: int
    name: str
    start: float
    parent: Optional[int]
    request: Optional[str]
    thread: int
    end: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder, used only by ``--trace 1`` runs.

    Spans nest per thread; a span opened with ``request=`` passes that id to
    every span opened beneath it, so the spans of one serve request share an
    id.  Spans stay in memory until :meth:`write` at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        record = Span(span_id=next(self._ids), name=name, start=time.perf_counter(),
                      parent=parent.span_id if parent is not None else None,
                      request=request, thread=threading.get_ident())
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, name: str, function: Callable, count: Optional[Callable] = None) -> Callable:
        """``function`` with each call recorded as a ``name`` span.

        ``count(args, kwargs, result)`` may return a work count stored on the
        span as ``attrs["items"]``.
        """
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
                if count is not None:
                    record.attrs["items"] = float(count(args, kwargs, result))
                return result
        return traced

    # ----------------------------------------------------------------- #
    def named(self, name: str, within: Optional[Sequence[Span]] = None) -> List[Span]:
        spans = self.spans if within is None else within
        return [span for span in spans if span.name == name]

    def descendants(self, root: Span) -> List[Span]:
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        found: List[Span] = []
        frontier = list(children.get(root.span_id, ()))
        while frontier:
            span = frontier.pop()
            found.append(span)
            frontier.extend(children.get(span.span_id, ()))
        return found

    def self_seconds(self, span: Span) -> float:
        """Duration minus the time its (same-thread, nested) children cover."""
        covered = sum(child.seconds for child in self.spans if child.parent == span.span_id)
        return span.seconds - covered

    def total(self, name: str, within: Optional[Sequence[Span]] = None,
              own: bool = False) -> float:
        """Summed duration (``own=True``: self time) of every ``name`` span."""
        spans = self.named(name, within)
        if own:
            return sum(self.self_seconds(span) for span in spans)
        return sum(span.seconds for span in spans)

    def coverage(self, root: Span) -> float:
        """Share of ``root``'s wall time spent inside any child span."""
        if root.seconds <= 0:
            return 0.0
        return 1.0 - self.self_seconds(root) / root.seconds

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda item: item.start):
                handle.write(json.dumps({
                    "id": span.span_id, "name": span.name, "parent": span.parent,
                    "request": span.request, "thread": span.thread,
                    "start": span.start, "end": span.end, "attrs": span.attrs,
                }, sort_keys=True) + "\n")


@contextmanager
def patched(owner: object, attribute: str, replacement: object) -> Iterator[None]:
    """Temporarily replace ``owner.attribute`` (instance or class attribute)."""
    had_own = attribute in vars(owner)
    original = vars(owner).get(attribute)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        if had_own:
            setattr(owner, attribute, original)
        else:
            delattr(owner, attribute)


def deadline_loop(seconds: float, minimum: int) -> Iterator[int]:
    """Yield rep indexes until ``seconds`` have passed and ``minimum`` ran."""
    started = time.perf_counter()
    for rep in itertools.count():
        if rep >= minimum and time.perf_counter() - started >= seconds:
            return
        yield rep
