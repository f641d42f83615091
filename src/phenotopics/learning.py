"""Variational EM over a corpus: E-step inference, M-step re-estimation, I/O.

The E-step runs :func:`phenotopics.variational.infer_document` for every
record (optionally across a thread pool; results are combined in record order
so thread count never changes the output); each posterior carries its
record's variational objective, and the EM objective is their sum. The M-step
re-estimates the topic matrices from count-weighted responsibilities,
recomputed per record at its mode, and, by default, moment-matches the
Gaussian prior to the per-record posteriors. Model files are versioned JSON
carrying every float at full binary64 precision.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .corpus import Corpus, Vocabulary
from .numerics import ridged_cholesky
from .variational import ModelParams, ModeObjective, infer_document

MODEL_FORMAT_VERSION = 1

# M-step pseudo-count per topic-token cell: no token probability reaches zero.
BETA_SMOOTHING = 1e-8
# Initial topic rows get uniform noise in [0, INIT_NOISE / V_m] to start apart.
INIT_NOISE = 1.0
# Retired TrainConfig fields that older model files still carry.
_RETIRED_CONFIG_KEYS = ("doc_max_outer", "beta_smoothing", "noise_scale", "doc_tol")


class ModelFormatError(ValueError):
    """Model file cannot be parsed or has an unsupported version."""


class FingerprintError(ValueError):
    """Model was built against different vocabularies than the ones supplied."""


@dataclass(frozen=True)
class TrainConfig:
    """Training knobs; every random choice flows from ``seed``."""

    K: int
    seed: int = 0
    max_em_iters: int = 100
    em_tol: float = 1e-5
    update_prior: bool = True

    def __post_init__(self):
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if self.max_em_iters < 0:
            raise ValueError("max_em_iters must be non-negative")


@dataclass
class TrainedModel:
    params: ModelParams
    vocabularies: tuple
    doc_posteriors: list
    history: list
    config: TrainConfig
    vocab_fingerprint: str
    converged: bool = False


def vocab_fingerprint(vocabularies) -> str:
    """SHA-256 over the canonical vocabulary layout (type order and tokens)."""
    canonical = json.dumps(
        [[v.type_name, list(v.tokens)] for v in vocabularies],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_compatible(model: TrainedModel, vocabularies) -> None:
    """Raise FingerprintError unless the model was trained on these vocabularies."""
    found = vocab_fingerprint(vocabularies)
    if found != model.vocab_fingerprint:
        raise FingerprintError(
            f"vocabulary fingerprint {found[:12]}... does not match the model's "
            f"{model.vocab_fingerprint[:12]}..."
        )


def initialize(corpus: Corpus, cfg: TrainConfig) -> ModelParams:
    """Zero prior mean, identity prior covariance, near-uniform topic rows.

    Each row starts at 1/V_m plus elementwise uniform noise in
    [0, INIT_NOISE/V_m], then renormalizes; with INIT_NOISE=0 the rows are
    exactly uniform. Bitwise deterministic given cfg.seed.
    """
    rng = np.random.default_rng(cfg.seed)
    k = cfg.K
    log_beta = []
    for vocab in corpus.vocabularies:
        v = vocab.size
        rows = 1.0 / v + rng.uniform(0.0, INIT_NOISE / v, size=(k, v))
        rows /= rows.sum(axis=1, keepdims=True)
        log_beta.append(np.log(rows))
    return ModelParams.create(np.zeros(k), np.eye(k), log_beta)


def m_step(
    corpus: Corpus,
    posteriors,
    cfg: TrainConfig,
    current: ModelParams,
) -> ModelParams:
    """Closed-form maximizers of the expected complete-data log likelihood.

    ``posteriors`` were inferred under ``current``. beta rows accumulate
    count-weighted responsibilities plus ``BETA_SMOOTHING``; each
    record's q(z) columns are recomputed at its mode under ``current``, the
    same computation (and bits) the E-step made there, so no per-token array
    outlives a record's inference. mu0/sigma0 moment-match the per-record
    Gaussian posteriors (mean of modes; mean of covariances plus mode
    scatter). With ``cfg.update_prior`` false the prior is copied from
    ``current`` instead.
    """
    if len(posteriors) != corpus.num_records:
        raise ValueError("need exactly one posterior per record")
    k = cfg.K

    beta_acc = [np.full((k, vocab.size), BETA_SMOOTHING) for vocab in corpus.vocabularies]
    for rec, post in zip(corpus.records, posteriors):
        objective = ModeObjective(rec, current)
        resp = objective.at(post.nu_hat)[0]
        for m, (idx, cnt) in enumerate(zip(objective.indices, objective.counts)):
            if idx.size:
                # distinct indices within one record: fancy += is safe
                beta_acc[m][:, idx] += resp[m] * cnt
    log_beta = [np.log(acc / acc.sum(axis=1, keepdims=True)) for acc in beta_acc]

    if cfg.update_prior:
        modes = np.stack([post.nu_hat for post in posteriors])
        mu0 = modes.mean(axis=0)
        centered = modes - mu0
        sigma0 = sum(post.nu_cov for post in posteriors) / len(posteriors)
        sigma0 += centered.T @ centered / len(posteriors)
        sigma0 = 0.5 * (sigma0 + sigma0.T)
        _, ridge = ridged_cholesky(sigma0)
        if ridge:
            warnings.warn(
                f"estimated prior covariance lost definiteness; repaired with ridge {ridge:g}",
                RuntimeWarning,
                stacklevel=2,
            )
            sigma0 += ridge * np.eye(k)
    else:
        mu0, sigma0 = current.mu0, current.sigma0

    return ModelParams.create(mu0, sigma0, log_beta)


def _e_step(corpus, params, warm_starts, threads):
    def infer_one(pair):
        rec, warm = pair
        return infer_document(rec, params, nu_init=warm)

    jobs = list(zip(corpus.records, warm_starts))
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # map preserves submission order, so the combined result (and
            # everything downstream) is independent of thread scheduling.
            return list(pool.map(infer_one, jobs))
    return [infer_one(job) for job in jobs]


def train(corpus: Corpus, cfg: TrainConfig, threads: int = 1) -> TrainedModel:
    """Alternate full-corpus E-steps with M-steps until the objective settles.

    Convergence: relative change of the summed per-record objective
    (``DocPosterior.elbo``) falls to ``cfg.em_tol``. Each EM iteration
    warm-starts every record's mode at its previous value. On convergence the
    final M-step is skipped so the returned posteriors correspond to the
    returned params.
    """
    params = initialize(corpus, cfg)
    warm = [params.mu0] * corpus.num_records
    posteriors: list = []
    history: list = []
    converged = False
    prev_obj = None

    for _ in range(cfg.max_em_iters):
        posteriors = _e_step(corpus, params, warm, threads)
        warm = [post.nu_hat for post in posteriors]
        obj = float(sum(post.elbo for post in posteriors))
        history.append(obj)
        if prev_obj is not None and abs(obj - prev_obj) <= cfg.em_tol * max(1.0, abs(prev_obj)):
            converged = True
            break
        prev_obj = obj
        params = m_step(corpus, posteriors, cfg, current=params)

    return TrainedModel(
        params=params,
        vocabularies=corpus.vocabularies,
        doc_posteriors=posteriors,
        history=history,
        config=cfg,
        vocab_fingerprint=vocab_fingerprint(corpus.vocabularies),
        converged=converged,
    )


def attach_posteriors(model: TrainedModel, corpus: Corpus, threads: int = 1) -> TrainedModel:
    """Infer posteriors for ``corpus`` under frozen params and return a copy.

    Model files do not carry posteriors, so analyses that need them re-derive
    them from a corpus; the corpus must match the model's vocabularies.
    """
    check_compatible(model, corpus.vocabularies)
    warm = [model.params.mu0] * corpus.num_records
    posteriors = _e_step(corpus, model.params, warm, threads)
    return replace(model, doc_posteriors=posteriors)


def save_model(model: TrainedModel, path) -> None:
    """Write the versioned JSON model file (full binary64 precision)."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "K": model.config.K,
        "M": model.params.num_types,
        "vocab_fingerprint": model.vocab_fingerprint,
        "vocabularies": {v.type_name: list(v.tokens) for v in model.vocabularies},
        "mu0": model.params.mu0.tolist(),
        "sigma0": model.params.sigma0.ravel().tolist(),
        "log_beta": {
            v.type_name: lb.ravel().tolist()
            for v, lb in zip(model.vocabularies, model.params.log_beta)
        },
        "config": asdict(model.config),
        "converged": model.converged,
        "history": list(model.history),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    """Read a model file back; verifies version and vocabulary fingerprint.

    The returned model has no per-record posteriors (the file format does not
    store them); use :func:`attach_posteriors` with a corpus when needed.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid JSON at offset {exc.pos}") from exc
    except ValueError as exc:  # not UTF-8, or an integer literal too long to convert
        raise ModelFormatError(f"{path}: unreadable model file ({exc})") from exc
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: expected a JSON object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format version {version!r} (expected {MODEL_FORMAT_VERSION})"
        )
    try:
        k = int(payload["K"])
        vocabularies = tuple(
            Vocabulary(type_name=name, tokens=tuple(tokens))
            for name, tokens in payload["vocabularies"].items()
        )
        mu0 = np.asarray(payload["mu0"], dtype=float)
        sigma0 = np.asarray(payload["sigma0"], dtype=float).reshape(k, k)
        log_beta = [
            np.asarray(payload["log_beta"][v.type_name], dtype=float).reshape(k, v.size)
            for v in vocabularies
        ]
        config = dict(payload["config"])
        for key in _RETIRED_CONFIG_KEYS:
            config.pop(key, None)
        config = TrainConfig(**config)
        stored_fp = payload["vocab_fingerprint"]
        history = list(payload.get("history", []))
        params = ModelParams.create(mu0, sigma0, log_beta)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model payload ({exc})") from exc

    found_fp = vocab_fingerprint(vocabularies)
    if found_fp != stored_fp:
        raise FingerprintError(
            f"{path}: stored vocabularies hash to {found_fp[:12]}... but the file "
            f"claims {str(stored_fp)[:12]}..."
        )
    return TrainedModel(
        params=params,
        vocabularies=vocabularies,
        doc_posteriors=[],
        history=history,
        config=config,
        vocab_fingerprint=stored_fp,
        converged=bool(payload.get("converged", False)),
    )
