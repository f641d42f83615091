"""Post-training analysis: definitions, labels, prevalence, relatedness graph.

Everything here reads a trained model without mutating it, so analyses can run
concurrently.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .learning import TrainedModel
from .numerics import is_positive_definite


@dataclass
class PhenotypeDefinition:
    """Ranked per-type token probabilities plus an automatic label.

    The label is the most probable token of the designated labeling type.
    """

    phenotype_id: int
    per_type_top_tokens: dict  # type_name -> list[(token, probability)]
    label: str
    label_type: str


@dataclass
class RelatednessGraph:
    """Thresholded phenotype-phenotype correlation edges.

    ``edges`` holds (i, j, rho) with i < j and |rho| strictly above the
    threshold; each qualifying pair appears exactly once, sign preserved.
    """

    correlation: np.ndarray
    edges: list
    threshold: float


def extract_phenotypes(model: TrainedModel, top_n: int, label_type: str) -> list:
    """Top-n tokens per type for every phenotype, ties broken by token index."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    type_names = [v.type_name for v in model.vocabularies]
    if label_type not in type_names:
        raise ValueError(f"unknown label_type {label_type!r}; have {type_names}")
    label_m = type_names.index(label_type)

    defs = []
    for k in range(model.params.num_phenotypes):
        per_type = {}
        for vocab, log_beta in zip(model.vocabularies, model.params.log_beta):
            probs = np.exp(log_beta[k])
            n = min(top_n, vocab.size)
            # stable mergesort on -p keeps the lowest token index first on ties
            order = np.argsort(-probs, kind="stable")[:n]
            per_type[vocab.type_name] = [(vocab.tokens[v], float(probs[v])) for v in order]
        defs.append(
            PhenotypeDefinition(
                phenotype_id=k,
                per_type_top_tokens=per_type,
                label=per_type[label_type][0][0],
                label_type=label_type,
            )
        )
    return defs


def correlation_matrix(model: TrainedModel, method: str = "prior") -> np.ndarray:
    """Phenotype correlation matrix.

    ``prior`` normalizes the learned prior covariance; ``empirical`` takes the
    Pearson correlation of per-record posterior proportions across records
    (requires posteriors).
    """
    if method == "prior":
        return covariance_to_correlation(model.params.sigma0)
    if method == "empirical":
        if not model.doc_posteriors:
            raise ValueError("empirical correlation requires per-record posteriors")
        props = np.stack([post.proportions for post in model.doc_posteriors])
        return _unit_symmetric(np.corrcoef(props, rowvar=False))
    raise ValueError(f"unknown correlation method {method!r}")


def covariance_to_correlation(sigma) -> np.ndarray:
    """Normalize a positive-definite covariance to its correlation matrix."""
    sigma = np.asarray(sigma, dtype=float)
    d = np.diag(sigma)
    if np.any(d <= 0) or not is_positive_definite(sigma):
        raise ValueError("covariance is not positive definite")
    return _unit_symmetric(sigma / np.sqrt(np.outer(d, d)))


def _unit_symmetric(corr: np.ndarray) -> np.ndarray:
    """Exactly symmetric, with an exact unit diagonal."""
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return corr


def correlation_graph(
    model: TrainedModel, threshold: float = 0.5, method: str = "prior"
) -> RelatednessGraph:
    """Edges for every pair with |correlation| strictly above the threshold.

    A threshold of exactly 1 is allowed and trivially yields no edges.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    corr = correlation_matrix(model, method=method)
    k = corr.shape[0]
    edges = [
        (i, j, float(corr[i, j]))
        for i in range(k)
        for j in range(i + 1, k)
        if abs(corr[i, j]) > threshold
    ]
    return RelatednessGraph(correlation=corr, edges=edges, threshold=threshold)


def prevalence(model: TrainedModel, present_threshold: float = 0.05) -> np.ndarray:
    """Fraction of records whose posterior proportion reaches the threshold,
    per phenotype. "Present in a record" means proportions[k] >= threshold."""
    if not 0.0 < present_threshold < 1.0:
        raise ValueError("present_threshold must lie in (0, 1)")
    if not model.doc_posteriors:
        raise ValueError("prevalence requires per-record posteriors")
    props = np.stack([post.proportions for post in model.doc_posteriors])
    return (props >= present_threshold).mean(axis=0)


def split_by_prevalence(graph: RelatednessGraph, prevalence_values, cutoff: float):
    """Partition edges: 'common' iff both endpoints exceed the prevalence cutoff."""
    if not 0.0 < cutoff < 1.0:
        raise ValueError("cutoff must lie in (0, 1)")
    prevalence_values = np.asarray(prevalence_values, dtype=float)
    common, rare = [], []
    for i, j, rho in graph.edges:
        if prevalence_values[i] > cutoff and prevalence_values[j] > cutoff:
            common.append((i, j, rho))
        else:
            rare.append((i, j, rho))
    return common, rare


def save_phenotype_report(definitions, path) -> None:
    """JSON list of phenotype definitions."""
    payload = [
        {
            "phenotype_id": d.phenotype_id,
            "label": d.label,
            "label_type": d.label_type,
            "per_type_top_tokens": {
                name: [{"token": t, "probability": p} for t, p in ranked]
                for name, ranked in d.per_type_top_tokens.items()
            },
        }
        for d in definitions
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def save_graph_json(graph: RelatednessGraph, path) -> None:
    payload = {
        "threshold": graph.threshold,
        "edges": [{"i": i, "j": j, "rho": rho} for i, j, rho in graph.edges],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def save_graph_csv(graph: RelatednessGraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "rho"])
        for i, j, rho in graph.edges:
            writer.writerow([i, j, repr(rho)])
