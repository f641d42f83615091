"""Post-training analysis: phenotype definitions with labels, and the
relatedness graph read off the learned prior covariance.

Everything here reads a trained model without mutating it, so analyses can run
concurrently.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .learning import TrainedModel
from .numerics import NonFiniteError, ridged_cholesky


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

    ranked = []  # per type: the topic rows and each row's top-n token indices
    for vocab, log_beta in zip(model.vocabularies, model.params.log_beta):
        probs = np.exp(log_beta)
        # stable mergesort on -p keeps the lowest token index first on ties
        order = np.argsort(-probs, axis=1, kind="stable")[:, :top_n]
        ranked.append((vocab, probs, order))
    defs = []
    for k in range(model.params.num_phenotypes):
        per_type = {
            vocab.type_name: [(vocab.tokens[v], float(probs[k, v])) for v in order[k].tolist()]
            for vocab, probs, order in ranked
        }
        defs.append(
            PhenotypeDefinition(
                phenotype_id=k,
                per_type_top_tokens=per_type,
                label=per_type[label_type][0][0],
                label_type=label_type,
            )
        )
    return defs


def covariance_to_correlation(sigma) -> np.ndarray:
    """Normalize a positive-definite covariance to its correlation matrix."""
    sigma = np.asarray(sigma, dtype=float)
    try:
        _, ridge = ridged_cholesky(sigma)
    except NonFiniteError as exc:
        raise ValueError("covariance is not finite") from exc
    if ridge:
        raise ValueError("covariance is not positive definite")
    d = np.diag(sigma)
    with np.errstate(over="ignore", under="ignore"):
        scale = np.sqrt(np.outer(d, d))
    # d_i d_j overflows past about 1e154 each and underflows below 1e-154;
    # the product of the roots does neither, but differs from the root of the
    # product in the last bit, so it stands in only where the latter failed
    root = np.sqrt(d)
    scale = np.where(np.isfinite(scale) & (scale > 0), scale, np.outer(root, root))
    corr = sigma / scale
    # exactly symmetric, with an exact unit diagonal
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return corr


def correlation_graph(model: TrainedModel, threshold: float = 0.5) -> RelatednessGraph:
    """Edges for every pair of the learned prior covariance's correlation
    matrix with |correlation| strictly above the threshold.

    A threshold of exactly 1 is allowed and trivially yields no edges.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    corr = covariance_to_correlation(model.params.sigma0)
    k = corr.shape[0]
    edges = [
        (i, j, float(corr[i, j]))
        for i in range(k)
        for j in range(i + 1, k)
        if abs(corr[i, j]) > threshold
    ]
    return RelatednessGraph(correlation=corr, edges=edges, threshold=threshold)


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
