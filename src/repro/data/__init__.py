"""Data substrate: records, schemas, domains, sampling, splits, storage."""

from . import generators
from .domain import MELScenario, PairCollection, SourceDomain, SupportSet, TargetDomain
from .records import MISSING_VALUE, EntityPair, Record
from .sampling import BatchSampler, negative_pairs_from_records, sample_balanced, sample_support_set
from .schema import Schema, align_ontology, align_pairs, align_records, union_schema
from .splits import split_by_sources, stratified_split, train_test_split
from .storage import (
    iter_pairs_jsonl,
    iter_records_csv,
    read_pair_labels_csv,
    read_pairs_jsonl,
    read_records_csv,
    write_pair_labels_csv,
    write_pairs_jsonl,
    write_records_csv,
)

__all__ = [
    "generators",
    "Record",
    "EntityPair",
    "MISSING_VALUE",
    "Schema",
    "align_ontology",
    "align_records",
    "align_pairs",
    "union_schema",
    "PairCollection",
    "SourceDomain",
    "TargetDomain",
    "SupportSet",
    "MELScenario",
    "BatchSampler",
    "sample_balanced",
    "sample_support_set",
    "negative_pairs_from_records",
    "train_test_split",
    "stratified_split",
    "split_by_sources",
    "write_records_csv",
    "read_records_csv",
    "iter_records_csv",
    "write_pairs_jsonl",
    "read_pairs_jsonl",
    "iter_pairs_jsonl",
    "write_pair_labels_csv",
    "read_pair_labels_csv",
]
