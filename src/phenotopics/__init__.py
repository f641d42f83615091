"""Correlated phenotype topic model for heterogeneous clinical count data.

Learns K correlated phenotypes from records that each carry M parallel bags of
token counts (e.g. note words, labs, medications, diagnosis codes), extracts
phenotype definitions and a phenotype-relatedness graph, and summarizes single
records over time as salience trajectories.
"""

__version__ = "0.1.0"

from .corpus import Corpus, CorpusError, RecordBags, Vocabulary, load_corpus, save_corpus
from .learning import TrainConfig, TrainedModel, initialize, load_model, m_step, save_model, train
from .numerics import maximize_concave, softmax
from .phenotype import PhenotypeDefinition, RelatednessGraph, correlation_graph, extract_phenotypes
from .summarize import (
    SummaryTrajectory,
    coverage_count,
    coverage_histogram,
    export_sankey,
    summarize_record,
)
from .synth import PlantedModel, RecoveryReport, match_phenotypes, recovery_report, sample_corpus
from .variational import DocPosterior, ModelParams, infer_block, infer_document

__all__ = [
    "Corpus",
    "CorpusError",
    "DocPosterior",
    "ModelParams",
    "PhenotypeDefinition",
    "PlantedModel",
    "RecordBags",
    "RecoveryReport",
    "RelatednessGraph",
    "SummaryTrajectory",
    "TrainConfig",
    "TrainedModel",
    "Vocabulary",
    "correlation_graph",
    "coverage_count",
    "coverage_histogram",
    "export_sankey",
    "extract_phenotypes",
    "infer_block",
    "infer_document",
    "initialize",
    "load_corpus",
    "load_model",
    "m_step",
    "match_phenotypes",
    "maximize_concave",
    "recovery_report",
    "sample_corpus",
    "save_corpus",
    "save_model",
    "softmax",
    "summarize_record",
    "train",
]
