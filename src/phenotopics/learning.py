"""Variational EM over a corpus: E-step inference, M-step re-estimation, I/O.

The E-step splits the records into consecutive blocks of at most
``BLOCK_TOKENS`` distinct tokens and runs
:func:`phenotopics.variational.infer_block` on each (optionally across a
thread pool; the partition does not depend on the thread count, and results
are combined in block order, so the thread count never changes the output).
Each posterior carries its record's variational objective, and the EM
objective is their sum. In training the E-step also sums the count-weighted
responsibilities at every mode, from which the M-step re-estimates the topic
matrices; the M-step moment-matches the Gaussian prior to the per-record
posteriors. Model files are versioned JSON carrying every float at full
binary64 precision, written by ``json`` and read by ``orjson``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
import orjson

from .corpus import Corpus, _orjson_loads, _parse_json, _parse_vocabularies
from .numerics import ridged_cholesky
from .variational import ModelParams, infer_block

MODEL_FORMAT_VERSION = 1

# M-step pseudo-count per topic-token cell: no token probability reaches zero.
BETA_SMOOTHING = 1e-8
# Initial topic rows get uniform noise in [0, INIT_NOISE / V_m] to start apart.
INIT_NOISE = 1.0
# Retired TrainConfig fields that older model files still carry.
_RETIRED_CONFIG_KEYS = ("doc_max_outer", "beta_smoothing", "noise_scale", "doc_tol", "update_prior")


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

    def __post_init__(self):
        # exact types: a model file's config echo reaches here unchecked, and
        # bool subclasses int
        for name in ("K", "seed", "max_em_iters"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.em_tol, bool) or not isinstance(self.em_tol, (int, float)):
            raise ValueError(f"em_tol must be a number, got {self.em_tol!r}")
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if self.K * self.K * 8 > np.iinfo(np.intp).max:  # bytes of the K x K float prior
            raise ValueError(f"K={self.K} is too large: numpy cannot hold a K x K prior")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.max_em_iters < 0:
            raise ValueError("max_em_iters must be non-negative")
        if not self.em_tol >= 0:  # also rejects NaN, which would never converge
            raise ValueError("em_tol must be non-negative")


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


def m_step(posteriors, topic_counts, current: ModelParams) -> ModelParams:
    """Closed-form maximizers of the expected complete-data log likelihood.

    ``posteriors`` and ``topic_counts`` come from one E-step under
    ``current``: ``topic_counts[m]`` is type m's (K, V_m) sum over records of
    count-weighted responsibilities at the modes (see :func:`_e_step`). beta
    rows normalize those counts plus ``BETA_SMOOTHING``. mu0/sigma0
    moment-match the per-record Gaussian posteriors (mean of modes; mean of
    covariances plus mode scatter).
    """
    if not posteriors:
        raise ValueError("need at least one posterior")
    if [c.shape for c in topic_counts] != [lb.shape for lb in current.log_beta]:
        raise ValueError("need one (K, V_m) topic count matrix per type of the model")
    k = current.num_phenotypes

    log_beta = []
    for counts in topic_counts:
        smoothed = counts + BETA_SMOOTHING
        log_beta.append(np.log(smoothed / smoothed.sum(axis=1, keepdims=True)))

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

    return ModelParams.create(mu0, sigma0, log_beta)


# Most distinct tokens, summed over its records and types, that one E-step
# block holds. It bounds the beta columns (K floats per token) a block
# gathers: a K=50 block of about eight records holds 3 MB of them, and a
# K=6 cohort of 15 records fits in one block. Larger blocks spread the
# driver's per-iteration work over more records; a record with more tokens
# is a block of its own.
BLOCK_TOKENS = 8192


def _blocks(records) -> list:
    """(start, stop) of consecutive runs of records, each within ``BLOCK_TOKENS``.

    The partition depends on the records alone, never on the thread count.
    """
    bounds, start, size = [], 0, 0
    for d, record in enumerate(records):
        tokens = sum(len(bag) for bag in record.bags)
        if d > start and size + tokens > BLOCK_TOKENS:
            bounds.append((start, d))
            start, size = d, 0
        size += tokens
    if start < len(records):
        bounds.append((start, len(records)))
    return bounds


def _e_step(records, params, warm_starts, threads, topic_counts=False):
    """Posteriors of ``records``, one :func:`infer_block` per block of them.

    The one loop over blocks: training, :func:`attach_posteriors` and
    :func:`~phenotopics.summarize.summarize_record` all infer through it.
    Records start at their rows of ``warm_starts``, or, when it is ``None``,
    at :func:`infer_block`'s cold start. Threads map over the blocks of
    :func:`_blocks`, and results are combined in block order, so the thread
    count never changes the output. With ``topic_counts``, also returns each
    type's (K, V_m) sum over records of q(z) times the token counts at the
    modes, for :func:`m_step`; otherwise ``None`` in its place.
    """

    def infer(bounds):
        start, stop = bounds
        starts = None if warm_starts is None else warm_starts[start:stop]
        posteriors, mode = infer_block(records[start:stop], params, starts)
        if not topic_counts:
            return posteriors, ()
        objective = mode.objective
        weighted = [
            [(idx, q * cnt) for idx, cnt, q in zip(
                objective.indices[i], objective.counts[i], mode.responsibilities(i)
            )]
            for i in range(stop - start)
        ]
        return posteriors, weighted

    posteriors = []
    sums = [np.zeros_like(lb) for lb in params.log_beta] if topic_counts else None
    blocks = _blocks(records)
    with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:
        # map yields in submission order, so the combined result (and
        # everything downstream) is independent of thread scheduling
        for block_posteriors, weighted in (
            pool.map(infer, blocks) if threads > 1 else map(infer, blocks)
        ):
            posteriors += block_posteriors
            for record in weighted:
                for m, (idx, counts) in enumerate(record):
                    # distinct indices within one record: fancy += is safe
                    sums[m][:, idx] += counts
    return posteriors, sums


def train(corpus: Corpus, cfg: TrainConfig, threads: int = 1) -> TrainedModel:
    """Alternate full-corpus E-steps with M-steps until the objective settles.

    Convergence: relative change of the summed per-record objective
    (``DocPosterior.elbo``) falls to ``cfg.em_tol``. The first E-step starts
    every record cold, and each later one warm-starts it at its previous
    mode. On convergence the final M-step is skipped so the returned
    posteriors correspond to the returned params.
    """
    params = initialize(corpus, cfg)
    warm = None
    posteriors: list = []
    history: list = []
    converged = False
    prev_obj = None

    for _ in range(cfg.max_em_iters):
        posteriors, topic_counts = _e_step(corpus.records, params, warm, threads, topic_counts=True)
        warm = [post.nu_hat for post in posteriors]
        obj = float(sum(post.elbo for post in posteriors))
        history.append(obj)
        if prev_obj is not None and abs(obj - prev_obj) <= cfg.em_tol * max(1.0, abs(prev_obj)):
            converged = True
            break
        prev_obj = obj
        params = m_step(posteriors, topic_counts, params)

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
    posteriors, _ = _e_step(corpus.records, model.params, None, threads)
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


def _scalar_arrays(data: bytes) -> list:
    """The ``(start, stop)`` byte spans of the arrays in ``data`` that hold no
    string, array or object, which in a model file are its arrays of numbers.

    A span may lie inside a string; no span holds a ``"``, so it lies wholly
    inside one or wholly outside.
    """
    spans = []
    start = data.find(b"[")
    while start != -1:
        end = data.find(b"]", start)
        if end == -1:
            break
        start = data.rfind(b"[", start, end)  # the innermost array closed at end
        if all(data.find(byte, start, end) == -1 for byte in (b'"', b"{", b"}")):
            spans.append((start, end + 1))
        start = data.find(b"[", end)
    return spans


def _parse_by_arrays(data: bytes):
    """What ``orjson.loads(data)`` returns, parsed one array of numbers at a
    time; ``None`` for a document that nests too deep for orjson.

    One orjson call holds the input, its own copy and its parse tree at once,
    about 15 MB more than ``json`` at the peak on a K=50 model file. Here each
    array of numbers is parsed alone, then the rest of the document with the
    i-th array replaced by ``[i`` newline ``]``. A raw newline is whitespace
    between values but not allowed in a string, so if an array was inside a
    string, that last parse fails.
    """
    spans = _scalar_arrays(data)
    view = memoryview(data)
    arrays = [orjson.loads(view[start:stop]) for start, stop in spans]
    pieces, done = [], 0
    for i, (start, stop) in enumerate(spans):
        pieces += [view[done:start], b"[%d\n]" % i]
        done = stop
    pieces.append(view[done:])
    # every list of one int is a placeholder: an array like [5] was a span;
    # no span holds a second opener, so the rest nests as deep as the file
    root = [_orjson_loads(b"".join(pieces))]
    stack = [root]
    while stack:
        node = stack.pop()
        for key, value in node.items() if type(node) is dict else enumerate(node):
            if type(value) is list and len(value) == 1 and type(value[0]) is int:
                node[key] = arrays[value[0]]
            elif type(value) in (list, dict):
                stack.append(value)
    return root[0]


def _within_binary64(parse):
    """``parse``, rejecting a number beyond binary64's range as orjson does."""

    def checked(text: str):
        value = parse(text)
        if abs(value) > sys.float_info.max:
            raise ValueError(f"number {text} is beyond binary64's range")
        return value

    return checked


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _parse_model_orjson(data: bytes):
    """:func:`_parse_by_arrays`, or ``None`` where orjson may have read an
    integer literal of 64 bits or more as a float.

    json reads such a literal as an exact int. In a model file only the
    config echo (a ``--seed`` of 2**64, say) and the history can hold one.
    """
    payload = _parse_by_arrays(data)
    if not isinstance(payload, dict):
        return payload
    config, history = payload.get("config"), payload.get("history")
    values = [*(config.values() if isinstance(config, dict) else ()),
              *(history if isinstance(history, list) else ())]
    if any(type(value) is float and abs(value) >= 2.0**63 for value in values):
        return None
    return payload


def _parse_strict_json(data: bytes):
    """``json.loads`` of UTF-8 ``data``, rejecting what orjson rejects:
    ``NaN``, ``Infinity`` and numbers beyond binary64's range."""
    return json.loads(
        data.decode("utf-8"),
        parse_float=_within_binary64(float),
        parse_int=_within_binary64(int),
        parse_constant=_reject_constant,
    )


def _parse_model_json(data: bytes):
    """A model file's UTF-8 bytes as strict JSON: no ``NaN`` or ``Infinity``
    literal, and no number beyond binary64's range.

    orjson parses a model file's arrays about five times faster than ``json``,
    to the same floats as ``float()``. A file that orjson rejects, could
    overflow, or whose integers it may have widened to floats goes to
    ``json``, made as strict, which also says where a file stops being JSON
    (see :func:`~phenotopics.corpus._parse_json`).
    """
    return _parse_json(data, _parse_model_orjson, _parse_strict_json)


def load_model(path) -> TrainedModel:
    """Read a model file back; verifies version and vocabulary fingerprint.

    The returned model has no per-record posteriors (the file format does not
    store them); use :func:`attach_posteriors` with a corpus when needed.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        payload = _parse_model_json(data)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid JSON at offset {exc.pos}") from exc
    except (RecursionError, ValueError) as exc:  # too deep, not UTF-8, or out of range
        raise ModelFormatError(f"{path}: unreadable model file ({exc})") from exc
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: expected a JSON object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format version {version!r} (expected {MODEL_FORMAT_VERSION})"
        )
    try:
        k = payload["K"]
        if type(k) is not int:  # bool subclasses int but is not a size
            raise ValueError(f"K must be an integer, got {k!r}")
        vocabularies = _parse_vocabularies(payload["vocabularies"])
        m = payload["M"]
        if type(m) is not int or m != len(vocabularies):
            raise ValueError(f"M is {m!r} but there are {len(vocabularies)} vocabularies")
        mu0 = np.asarray(payload["mu0"], dtype=float)
        sigma0 = np.asarray(payload["sigma0"], dtype=float).reshape(k, k)
        if not np.array_equal(sigma0, sigma0.T):  # save_model writes it bitwise symmetric
            raise ValueError("sigma0 must be symmetric")
        log_beta = [
            np.asarray(payload["log_beta"][v.type_name], dtype=float).reshape(k, v.size)
            for v in vocabularies
        ]
        config = dict(payload["config"])
        # while update_prior was a field it held true or false; no file held anything else
        update_prior = config.get("update_prior", False)
        if type(update_prior) is not bool:
            raise ValueError(f"config update_prior must be true or false, got {update_prior!r}")
        for key in _RETIRED_CONFIG_KEYS:
            config.pop(key, None)
        config = TrainConfig(**config)
        if config.K != k:
            raise ValueError(f"config K {config.K!r} differs from K {k}")
        stored_fp = payload["vocab_fingerprint"]
        history = payload["history"]
        if not isinstance(history, list) or any(type(h) not in (int, float) for h in history):
            raise ValueError("history must be a list of numbers")
        converged = payload["converged"]
        if type(converged) is not bool:
            raise ValueError(f"converged must be true or false, got {converged!r}")
        params = ModelParams.create(mu0, sigma0, log_beta)
        found_fp = vocab_fingerprint(vocabularies)  # json reads "\ud800" to a str it cannot encode
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model payload ({exc})") from exc

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
        converged=converged,
    )
