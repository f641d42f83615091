"""Output checks, computed apart from the program.

Each function takes plain data (parsed files or arrays pulled off the
program's results) and returns a list of failure messages, empty when the
output passes. Every call is one operation in the benchmark's count; a
non-empty list is one failed operation. Nothing here imports the program.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.optimize

ROW_SUM_TOL = 1e-9
CONSERVATION_TOL = 1e-8


def check_exit(code, expected=0) -> list:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def check_fixed_iterations(code, manifest: dict, iterations: int) -> list:
    """Training with no tolerance runs exactly ``iterations`` EM iterations and
    exits 3 ("not converged") after writing the model."""
    failures = check_exit(code, expected=3)
    if manifest.get("em_iterations") != iterations or manifest.get("converged") is not False:
        failures.append(
            f"manifest reports {manifest.get('em_iterations')} iterations, "
            f"converged={manifest.get('converged')}"
        )
    return failures


def check_objective_rose(history_path, iterations: int) -> list:
    """history.csv holds one objective per iteration, and EM raised it."""
    with open(history_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    objectives = [float(objective) for _, objective in rows]
    if len(objectives) != iterations:
        return [f"{len(objectives)} objectives for {iterations} iterations"]
    if not objectives[-1] > objectives[0]:
        return [f"objective went from {objectives[0]!r} to {objectives[-1]!r}"]
    return []


def model_topics(payload: dict) -> list:
    """Per-type (K, V) topic probabilities from a parsed model.json."""
    k = int(payload["K"])
    return [
        np.exp(np.asarray(payload["log_beta"][name], dtype=float).reshape(k, len(tokens)))
        for name, tokens in payload["vocabularies"].items()
    ]


def check_model_file(payload: dict) -> list:
    """A model.json parsed with ``json``: topic rows sum to 1, sigma0 is SPD."""
    failures = []
    k = int(payload["K"])
    for name, rows in zip(payload["vocabularies"], model_topics(payload)):
        worst = float(np.abs(rows.sum(axis=1) - 1.0).max())
        if worst > ROW_SUM_TOL:
            failures.append(f"type {name}: topic rows sum to 1 within {worst:.3g}")
    sigma = np.asarray(payload["sigma0"], dtype=float).reshape(k, k)
    if not np.array_equal(sigma, sigma.T):
        failures.append("sigma0 is not symmetric")
    elif float(np.linalg.eigvalsh(sigma).min()) <= 0.0:
        failures.append("sigma0 is not positive definite")
    return failures


def tv_cost(learned: list, truth: list) -> np.ndarray:
    """cost[i, j]: total-variation distance between learned phenotype i and
    planted phenotype j, summed over the data types."""
    cost = 0.0
    for a, b in zip(learned, truth):
        cost = cost + 0.5 * np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
    return cost


def match_topics(learned: list, truth: list) -> tuple:
    """Optimal learned-to-planted assignment; returns (perm, mean per-type TV)
    where learned phenotype ``i`` is matched to planted ``perm[i]``."""
    cost = tv_cost(learned, truth)
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    perm = [0] * len(rows)
    for r, c in zip(rows, cols):
        perm[int(r)] = int(c)
    return perm, float(cost[rows, cols].sum()) / (cost.shape[0] * len(truth))


def check_topic_recovery(models: list, truth: list, max_mean_tv: float) -> list:
    """``models`` holds each trained model's per-type topics; the mean of their
    matched TVs must stay within ``max_mean_tv``."""
    mean_tv = float(np.mean([match_topics(learned, truth)[1] for learned in models]))
    return [] if mean_tv <= max_mean_tv else [f"mean matched TV {mean_tv:.4f} > {max_mean_tv}"]


def check_conservation(expected_sums, totals, proportion_sum) -> list:
    """One record: per-type expected counts add up to the type's token total,
    and the proportions sum to 1."""
    failures = []
    gap = np.abs(np.asarray(expected_sums) - np.asarray(totals))
    if float(gap.max()) > CONSERVATION_TOL * max(1.0, float(np.max(totals))):
        failures.append(f"expected counts miss token totals by {float(gap.max()):.3g}")
    if abs(proportion_sum - 1.0) > ROW_SUM_TOL:
        failures.append(f"proportions sum to {proportion_sum!r}")
    return failures


def check_proportions(inferred, planted, min_top1: float, max_mae: float) -> list:
    """Top-1 agreement with the planted proportions and their mean absolute error."""
    inferred = np.asarray(inferred)
    planted = np.asarray(planted)
    top1 = float(np.mean(inferred.argmax(axis=1) == planted.argmax(axis=1)))
    mae = float(np.abs(inferred - planted).mean())
    failures = []
    if top1 < min_top1:
        failures.append(f"top-1 agreement {top1:.3f} < {min_top1}")
    if mae > max_mae:
        failures.append(f"mean absolute error {mae:.5f} > {max_mae}")
    return failures


def scan_coverage_count(proportions, mass: float) -> int:
    """Phenotypes needed to reach ``mass``: sort descending, add until reached
    (with the program's documented 1e-12 slack)."""
    total = 0.0
    for count, p in enumerate(sorted(proportions, reverse=True), start=1):
        total += p
        if total >= mass - 1e-12:
            return count
    return len(proportions)


def check_coverage(fractions: dict, proportions, mass: float) -> list:
    """``fractions`` maps (lo, hi) buckets, hi None for open, to the program's
    fraction of records; they must equal a sort-and-scan count."""
    counts = [scan_coverage_count(list(map(float, row)), mass) for row in proportions]
    failures = []
    for (lo, hi), fraction in fractions.items():
        inside = sum(1 for c in counts if c >= lo and (hi is None or c <= hi))
        if fraction != inside / len(counts):
            failures.append(f"bucket {lo}-{hi}: {fraction!r} != {inside}/{len(counts)}")
    return failures


def check_edges(edges, planted_pairs, threshold: float) -> list:
    """Relatedness edges equal the planted pairs above the threshold, signs kept."""
    found = {(int(i), int(j), math.copysign(1.0, rho)) for i, j, rho in edges}
    want = {
        (min(i, j), max(i, j), math.copysign(1.0, rho))
        for i, j, rho in planted_pairs
        if abs(rho) > threshold
    }
    if found == want:
        return []
    return [f"edges {sorted(found)} != planted {sorted(want)}"]


def read_trajectory_csv(path) -> dict:
    """bin -> ([(phenotype, salience), ...] in file order, residual)."""
    bins: dict = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for bin_label, phenotype, salience in reader:
            rows, residual = bins.setdefault(bin_label, ([], None))
            if phenotype == "residual":
                bins[bin_label] = (rows, float(salience))
            else:
                rows.append((int(phenotype), float(salience)))
    return bins


def check_salience_residual(trajectory: dict) -> list:
    failures = []
    for bin_label, (rows, residual) in trajectory.items():
        total = sum(s for _, s in rows) + (residual if residual is not None else math.nan)
        if not abs(total - 1.0) <= ROW_SUM_TOL:
            failures.append(f"bin {bin_label}: salience + residual = {total!r}")
    return failures


def check_sankey(sankey: dict, planted_bins: list, top_n: int) -> list:
    """Bins in planted order; every bin has the same top-N phenotypes; links
    join adjacent bins."""
    failures = []
    if sankey.get("bins") != planted_bins:
        failures.append(f"bins {sankey.get('bins')} != planted order {planted_bins}")
        return failures
    per_bin: dict = {b: [] for b in planted_bins}
    for node in sankey["nodes"]:
        per_bin.setdefault(node["bin"], []).append(node["phenotype"])
    selected = per_bin[planted_bins[0]]
    for b in planted_bins:
        if len(per_bin[b]) != top_n or len(set(per_bin[b])) != top_n or per_bin[b] != selected:
            failures.append(f"bin {b}: nodes {per_bin[b]} are not the {top_n} selected {selected}")
    if len(sankey["links"]) != top_n * (len(planted_bins) - 1):
        failures.append(f"{len(sankey['links'])} links for {len(planted_bins)} bins")
    return failures


def check_final_first(sankey: dict, final_phenotype: int) -> list:
    first = sankey["nodes"][0]["phenotype"] if sankey["nodes"] else None
    if first == final_phenotype:
        return []
    return [f"first selected phenotype {first} != planted final {final_phenotype}"]
