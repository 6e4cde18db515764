"""Entity resolution: threshold match scores and cluster with union-find.

Pairwise match probabilities are not yet entities: the final stage thresholds
the scores and resolves the surviving match edges into connected components
(transitive closure) with a union-find structure.  Because transitivity is
*imposed* rather than predicted, the stage also reports how often it was
violated — candidate pairs the model scored below the threshold whose records
nevertheless ended up co-clustered — and, when ``entity_id`` ground truth is
available, pairwise precision/recall/F1 of the produced clusters.

Cluster output is canonical: members are sorted by record id and clusters by
their smallest member, so the result is invariant to edge processing order.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..data.records import Record
from .scoring import ScoredCandidates

__all__ = ["UnionFind", "ClusteringStage", "ClusterResult", "MatchEdge",
           "apply_match_edges", "eligible_match_edges", "order_match_edges",
           "pairwise_cluster_metrics"]

# A thresholded match edge: (score, left record id, right record id) with
# ``left < right`` under string order — the canonical key both the batch
# stage and the online entity store sort and merge by.
MatchEdge = Tuple[float, str, str]


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, items: Optional[Iterable[Hashable]] = None) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        for item in items or ():
            self.add(item)

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    def add(self, item: Hashable) -> None:
        """Register ``item`` as its own singleton component (idempotent)."""
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: Hashable) -> Hashable:
        """Root of ``item``'s component (with path compression)."""
        parent = self._parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, left: Hashable, right: Hashable) -> bool:
        """Merge the components of ``left`` and ``right``; True when distinct."""
        self.add(left)
        self.add(right)
        root_left, root_right = self.find(left), self.find(right)
        if root_left == root_right:
            return False
        if self._size[root_left] < self._size[root_right]:
            root_left, root_right = root_right, root_left
        self._parent[root_right] = root_left
        self._size[root_left] += self._size[root_right]
        return True

    def connected(self, left: Hashable, right: Hashable) -> bool:
        """Whether both items are registered and share a component."""
        if left not in self._parent or right not in self._parent:
            return False
        return self.find(left) == self.find(right)

    def groups(self) -> List[List[Hashable]]:
        """Components as member lists, each sorted, ordered by first member.

        The canonical ordering makes the output independent of the order in
        which items were added and edges were unioned.
        """
        components: Dict[Hashable, List[Hashable]] = defaultdict(list)
        for item in self._parent:
            components[self.find(item)].append(item)
        groups = [sorted(members) for members in components.values()]
        groups.sort(key=lambda members: members[0])
        return groups


def order_match_edges(edges: Iterable[MatchEdge]) -> List[MatchEdge]:
    """Sort match edges best-first under the canonical total order.

    Edges are processed in descending score order with ``(left_id, right_id)``
    as the deterministic tie-break, so greedy merging is independent of the
    order in which edges were discovered.  Streaming one record at a time and
    batch runs therefore agree as long as both resolve from this order.
    """
    return sorted(edges, key=lambda edge: (-edge[0], edge[1], edge[2]))


def apply_match_edges(union_find: UnionFind,
                      cluster_sources: Optional[Dict[Hashable, set]],
                      edges: Sequence[MatchEdge]) -> Tuple[int, int]:
    """Greedily merge pre-ordered ``edges`` into ``union_find``.

    ``cluster_sources`` maps each current root to the set of data sources in
    its cluster; when provided, a merge that would co-cluster two records of
    one source is vetoed (the source-consistency constraint).  Pass ``None``
    to disable the veto (plain transitive closure).  Returns ``(matches,
    source_conflicts)``: edges whose endpoints ended up co-clustered, and
    edges vetoed by the constraint.

    Because a merge/veto decision depends only on the state of the edge's own
    connected component, greedy resolution over any union of whole components
    equals the global greedy restricted to those records — the property the
    online :class:`~repro.serve.EntityStore` relies on to re-resolve only the
    components an upsert touched.
    """
    matches = 0
    source_conflicts = 0
    for _, left_id, right_id in edges:
        root_left = union_find.find(left_id)
        root_right = union_find.find(right_id)
        if root_left == root_right:
            matches += 1
            continue
        if cluster_sources is not None and cluster_sources[root_left] & cluster_sources[root_right]:
            source_conflicts += 1
            continue
        union_find.union(root_left, root_right)
        if cluster_sources is not None:
            cluster_sources[union_find.find(root_left)] = (
                cluster_sources[root_left] | cluster_sources[root_right])
        matches += 1
    return matches, source_conflicts


def eligible_match_edges(scored: ScoredCandidates, threshold: float) -> List[MatchEdge]:
    """The thresholded match edges of ``scored``, in canonical best-first order.

    Below-threshold pairs never become merge edges, so they are dropped
    before the Python-level sort.  The batch :class:`ClusteringStage` and
    the incremental store resolve from exactly this edge order, which is
    what makes their cluster output comparable edge-for-edge.
    """
    eligible = np.flatnonzero(np.asarray(scored.scores) >= threshold)
    return order_match_edges(
        (float(scored.scores[i]), scored.pairs[i].left.record_id,
         scored.pairs[i].right.record_id)
        for i in eligible.tolist())


def pairwise_cluster_metrics(assignments: Dict[str, int],
                             truth: Dict[str, str]) -> Dict[str, float]:
    """Pairwise precision/recall/F1 of a clustering against entity ground truth.

    Both mappings are keyed by record id; only records present in ``truth``
    are evaluated.  A "pair" is any unordered pair of evaluated records; it is
    predicted positive when co-clustered and truly positive when the records
    share an ``entity_id``.  Counts are computed from group sizes, never by
    enumerating pairs.
    """
    evaluated = [record_id for record_id in assignments if record_id in truth]
    cluster_sizes = Counter(assignments[record_id] for record_id in evaluated)
    entity_sizes = Counter(truth[record_id] for record_id in evaluated)
    joint_sizes = Counter((assignments[record_id], truth[record_id])
                          for record_id in evaluated)

    def _pairs(counts: Counter) -> int:
        return sum(count * (count - 1) // 2 for count in counts.values())

    predicted = _pairs(cluster_sizes)
    actual = _pairs(entity_sizes)
    true_positive = _pairs(joint_sizes)
    precision = true_positive / predicted if predicted else 0.0
    recall = true_positive / actual if actual else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return {
        "pairwise_precision": precision,
        "pairwise_recall": recall,
        "pairwise_f1": f1,
        "evaluated_records": float(len(evaluated)),
    }


@dataclass
class ClusterResult:
    """Resolved entities plus clustering-quality statistics."""

    clusters: List[List[str]]
    assignments: Dict[str, int]
    violations: List[Tuple[str, str, float]]
    stats: Dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.clusters)


class ClusteringStage:
    """Threshold scored pairs and resolve entities via connected components.

    Match edges are applied in *descending score order*; with
    ``source_consistent`` (the default) a merge is vetoed when it would put
    two records from the same data source into one cluster.  In cross-source
    linkage an entity has at most one record per source, so the constraint is
    a hard structural prior — it stops one spurious edge between
    near-duplicate entities from snowballing whole source catalogues into a
    single giant cluster, the classic failure mode of plain transitive
    closure.

    Parameters
    ----------
    threshold:
        Minimum matching probability for a pair to become a merge edge.
    source_consistent:
        Veto merges that would co-cluster two records of one source.  Disable
        for deployments where one source can legitimately hold duplicates.
    """

    def __init__(self, threshold: float = 0.5, source_consistent: bool = True) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold
        self.source_consistent = source_consistent

    def run(self, records: Sequence[Record], scored: ScoredCandidates) -> ClusterResult:
        """Cluster ``records`` using the match edges in ``scored``.

        Every record appears in exactly one cluster (unmatched records stay
        singletons).  Edges are processed best-first under a total order
        (score, then pair key) and cluster ids are assigned canonically, so
        two runs over the same scores produce identical output regardless of
        record or edge ordering.
        """
        union_find = UnionFind(record.record_id for record in records)
        cluster_sources: Dict[Hashable, set] = {record.record_id: {record.source}
                                                for record in records}
        unknown = {record_id
                   for pair in scored.pairs
                   for record_id in (pair.left.record_id, pair.right.record_id)
                   if record_id not in union_find}
        if unknown:
            raise ValueError(
                f"scored pairs reference {len(unknown)} record id(s) not in "
                f"`records` (e.g. {sorted(unknown)[:3]}); score and cluster "
                f"over the same record set")
        edges = eligible_match_edges(scored, self.threshold)
        matches, source_conflicts = apply_match_edges(
            union_find, cluster_sources if self.source_consistent else None, edges)

        clusters = union_find.groups()
        assignments = {record_id: cluster_id
                       for cluster_id, members in enumerate(clusters)
                       for record_id in members}

        # Transitivity violations: candidate pairs the model rejected whose
        # records were nevertheless merged through other edges.
        violations: List[Tuple[str, str, float]] = []
        for pair, score in zip(scored.pairs, scored.scores):
            if score < self.threshold and union_find.connected(
                    pair.left.record_id, pair.right.record_id):
                violations.append((pair.left.record_id, pair.right.record_id, float(score)))
        rejected = int(np.sum(scored.scores < self.threshold)) if len(scored) else 0

        sizes = [len(members) for members in clusters]
        stats: Dict[str, float] = {
            "threshold": self.threshold,
            "num_records": float(len(records)),
            "num_clusters": float(len(clusters)),
            "num_match_edges": float(matches),
            "source_conflicts": float(source_conflicts),
            "num_singletons": float(sum(1 for size in sizes if size == 1)),
            "max_cluster_size": float(max(sizes)) if sizes else 0.0,
            "transitivity_violations": float(len(violations)),
            "transitivity_violation_rate": len(violations) / rejected if rejected else 0.0,
        }
        truth = {record.record_id: record.entity_id
                 for record in records if record.entity_id is not None}
        if truth:
            stats.update(pairwise_cluster_metrics(assignments, truth))
        return ClusterResult(clusters=clusters, assignments=assignments,
                             violations=violations, stats=stats)
