"""Local antimagic 3-colorings of odd-size graph families: constructions,
certification, equal-sum partitions, and an exact desk-scale solver."""

from .graph import (
    Certificate,
    EdgeLabeling,
    Graph,
    V,
    VertexId,
    certify,
    induce_coloring,
)
from .families import FamilyInstance, build_family, sweep_family, verify_instance
from .partition import EqualSumPartition, partition_ap
from .solver import SearchConfig, SolveResult, solve_chi_la
from .tables import (
    LabelTable,
    TracedSequences,
    check_m1_observations,
    check_m3_observations,
    table_m1,
    table_m3,
    table_pt,
    trace_sequences,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "EdgeLabeling",
    "EqualSumPartition",
    "FamilyInstance",
    "Graph",
    "LabelTable",
    "SearchConfig",
    "SolveResult",
    "TracedSequences",
    "V",
    "VertexId",
    "build_family",
    "certify",
    "check_m1_observations",
    "check_m3_observations",
    "induce_coloring",
    "partition_ap",
    "solve_chi_la",
    "sweep_family",
    "table_m1",
    "table_m3",
    "table_pt",
    "trace_sequences",
    "verify_instance",
]
