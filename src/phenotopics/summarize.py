"""Problem-oriented record summarization over time bins.

A record is summarized by inferring phenotype proportions per time segment
under frozen model parameters, selecting the top-N phenotypes in the most
recent segment, and reporting their salience (posterior proportion) in every
segment. Selected phenotypes keep their true salience in every bin, however
small; the unselected remainder is reported as an explicit residual instead of
renormalizing.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .learning import TrainedModel, _e_step

# Emitted sankey documents follow this structure; nodes exist for every
# (selected phenotype, bin) pair even at zero salience so renderers keep a
# stable layout, and links connect the same phenotype across adjacent bins.
SANKEY_SCHEMA = {
    "type": "object",
    "required": ["record_id", "bins", "nodes", "links"],
    "properties": {
        "record_id": {"type": "string"},
        "bins": {"type": "array", "items": {"type": "string"}},
        "nodes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["phenotype", "bin", "value"],
                "properties": {
                    "phenotype": {"type": "integer", "minimum": 0},
                    "bin": {"type": "string"},
                    "value": {"type": "number", "minimum": 0, "maximum": 1},
                },
            },
        },
        "links": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["phenotype", "from_bin", "to_bin", "value"],
                "properties": {
                    "phenotype": {"type": "integer", "minimum": 0},
                    "from_bin": {"type": "string"},
                    "to_bin": {"type": "string"},
                    "value": {"type": "number", "minimum": 0, "maximum": 1},
                },
            },
        },
    },
}


@dataclass
class SummaryTrajectory:
    """Salience of the selected phenotypes across ordered time bins.

    ``salience[b][s]`` is the posterior proportion of ``selected[s]`` in bin b;
    ``residual[b]`` is the proportion mass outside the selected set (never
    below 0), and ``nonconverged_segments`` counts the bins whose posterior
    did not converge.
    """

    record_id: str
    bins: list
    selected: list
    salience: np.ndarray  # (num_bins, len(selected))
    residual: np.ndarray  # (num_bins,)
    nonconverged_segments: int


def summarize_record(segments, model: TrainedModel, top_n: int = 5) -> SummaryTrajectory:
    """Infer the segments under frozen params and track the top-N phenotypes.

    The segments are inferred by the E-step on one thread, in blocks of at
    most ``learning.BLOCK_TOKENS`` distinct tokens, so a patient with few
    segments is one block and a long history does not hold all its beta
    columns at once.
    Selection uses the final (most recent) bin's proportions, ties broken by
    phenotype index; trajectories are then reported for every bin. Segments
    must share one record_id and reference the model's vocabularies.
    """
    segments = list(segments)
    if not segments:
        raise ValueError("empty segment list")
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    record_id = segments[0].record_id
    if any(seg.record_id != record_id for seg in segments):
        raise ValueError("segments must share one record_id")

    posteriors, _ = _e_step(segments, model.params, None, 1)
    proportions = np.stack([post.proportions for post in posteriors])
    bins = [
        seg.time_bin if seg.time_bin is not None else str(pos)
        for pos, seg in enumerate(segments)
    ]
    nonconverged = sum(not post.converged for post in posteriors)

    top_n = min(top_n, model.params.num_phenotypes)
    # argsort on (-p, index): stable mergesort keeps lower index first on ties
    order = np.argsort(-proportions[-1], kind="stable")
    selected = [int(k) for k in order[:top_n]]

    salience = proportions[:, selected]
    # with every phenotype selected the sum can round above 1
    residual = np.maximum(1.0 - salience.sum(axis=1), 0.0)
    return SummaryTrajectory(
        record_id=record_id,
        bins=bins,
        selected=selected,
        salience=salience,
        residual=residual,
        nonconverged_segments=nonconverged,
    )


def coverage_count(proportions, mass: float) -> int:
    """Minimal number of phenotypes whose summed proportions reach ``mass``.

    "Reach" allows 1e-12 of float slack so that e.g. ten 0.1 entries cover
    mass 0.9 with nine phenotypes despite accumulation roundoff. Permutation
    invariant; non-decreasing in mass.
    """
    p = np.asarray(proportions, dtype=float)
    if not 0.0 < mass <= 1.0:
        raise ValueError("mass must lie in (0, 1]")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("proportions must sum to 1")
    ordered = np.sort(p)[::-1]
    cumulative = np.cumsum(ordered)
    idx = int(np.searchsorted(cumulative, mass - 1e-12))
    return min(idx + 1, p.size)


# Inclusive (lo, hi) ranges of coverage counts, hi=None meaning unbounded; they
# partition the positive integers, so every record lands in exactly one.
COVERAGE_BUCKETS = ((1, 5), (6, 20), (21, None))


def coverage_histogram(model: TrainedModel, mass: float = 0.9):
    """Fraction of records per ``COVERAGE_BUCKETS`` range of coverage counts;
    the fractions sum to 1."""
    if not model.doc_posteriors:
        raise ValueError("coverage requires per-record posteriors")
    counts = [coverage_count(post.proportions, mass) for post in model.doc_posteriors]
    fractions = {}
    for lo, hi in COVERAGE_BUCKETS:
        inside = sum(1 for c in counts if c >= lo and (hi is None or c <= hi))
        fractions[(lo, hi)] = inside / len(counts)
    return fractions


def bucket_label(bucket) -> str:
    lo, hi = bucket
    return f"{lo}+" if hi is None else f"{lo}-{hi}"


def export_sankey(trajectory: SummaryTrajectory, path) -> None:
    """Write flow-diagram JSON: one node per (phenotype, bin), links between
    adjacent bins of the same phenotype weighted by the source bin's salience."""
    nodes = []
    links = []
    for b, bin_label in enumerate(trajectory.bins):
        for s, phenotype in enumerate(trajectory.selected):
            nodes.append(
                {
                    "phenotype": int(phenotype),
                    "bin": bin_label,
                    "value": float(trajectory.salience[b, s]),
                }
            )
    for b in range(len(trajectory.bins) - 1):
        for s, phenotype in enumerate(trajectory.selected):
            links.append(
                {
                    "phenotype": int(phenotype),
                    "from_bin": trajectory.bins[b],
                    "to_bin": trajectory.bins[b + 1],
                    "value": float(trajectory.salience[b, s]),
                }
            )
    payload = {
        "record_id": trajectory.record_id,
        "bins": list(trajectory.bins),
        "nodes": nodes,
        "links": links,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def save_trajectory_csv(trajectory: SummaryTrajectory, path) -> None:
    """Long-format CSV (bin, phenotype, salience) plus per-bin residual rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "phenotype", "salience"])
        for b, bin_label in enumerate(trajectory.bins):
            for s, phenotype in enumerate(trajectory.selected):
                writer.writerow([bin_label, phenotype, repr(float(trajectory.salience[b, s]))])
            writer.writerow([bin_label, "residual", repr(float(trajectory.residual[b]))])
