"""Data model and file I/O for heterogeneous count corpora.

A corpus couples M per-type vocabularies with D records; each record holds one
sparse bag of token counts per type. On disk a corpus is a directory with

* ``vocab.json``   -- JSON object ``{type_name: [token, ...], ...}``
* ``records.jsonl`` -- one record per line:
  ``{"id": str, "time_bin": optional str, "bags": {type_name: {token: count}}}``

Repeated tokens are stored as counts, never as repeated entries: downstream
inference only consumes count vectors, so counts are sufficient. A corpus is
immutable after load and safe to share across worker threads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

VOCAB_FILENAME = "vocab.json"
RECORDS_FILENAME = "records.jsonl"

# Largest token count: inference computes in binary64 floats, which hold every
# integer up to 2**53 exactly.
MAX_COUNT = 2**53


class CorpusError(ValueError):
    """Malformed or inconsistent corpus data; message carries the location."""


@dataclass(frozen=True)
class Vocabulary:
    """Ordered unique tokens for one data type; position is the token index."""

    type_name: str
    tokens: tuple

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise CorpusError(f"vocabulary {self.type_name!r} contains duplicate tokens")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def index_of(self) -> dict:
        return {tok: i for i, tok in enumerate(self.tokens)}


@dataclass(frozen=True)
class RecordBags:
    """One record (or one time segment of a record) as M sparse count bags.

    ``bags[m]`` maps token index -> count for the corpus's m-th type; segments
    of the same underlying record share ``record_id`` and carry distinct
    ``time_bin`` labels.
    """

    record_id: str
    bags: tuple
    time_bin: str | None = None


@dataclass(frozen=True)
class Corpus:
    vocabularies: tuple
    records: tuple

    @property
    def num_types(self) -> int:
        return len(self.vocabularies)

    @property
    def num_records(self) -> int:
        return len(self.records)

    @property
    def type_names(self) -> list:
        return [v.type_name for v in self.vocabularies]

    def __post_init__(self):
        if self.num_types < 1:
            raise CorpusError("corpus needs at least one data type")
        if self.num_records < 1:
            raise CorpusError("no records")
        for rec in self.records:
            _validate_record(rec, self.vocabularies)


def _validate_record(rec: RecordBags, vocabularies) -> None:
    if len(rec.bags) != len(vocabularies):
        raise CorpusError(
            f"record {rec.record_id!r} has {len(rec.bags)} bags, expected {len(vocabularies)}"
        )
    for vocab, bag in zip(vocabularies, rec.bags):
        for idx, count in bag.items():
            # type(...) is int: bool subclasses int but is not a count or index
            if type(idx) is not int or not 0 <= idx < vocab.size:
                raise CorpusError(
                    f"record {rec.record_id!r}: token index {idx!r} invalid for "
                    f"type {vocab.type_name!r} (size {vocab.size})"
                )
            if type(count) is not int or not 1 <= count <= MAX_COUNT:
                raise CorpusError(
                    f"record {rec.record_id!r}: count for token {vocab.tokens[idx]!r} of type "
                    f"{vocab.type_name!r} must be a positive integer up to 2**53, "
                    f"got {count!r}"
                )


def _parse_vocabularies(raw) -> tuple:
    if not isinstance(raw, dict) or not raw:
        raise CorpusError("vocabulary file must be a non-empty JSON object")
    vocabs = []
    for name, tokens in raw.items():
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise CorpusError(f"vocabulary {name!r} must be a list of strings")
        vocabs.append(Vocabulary(type_name=name, tokens=tuple(tokens)))
    return tuple(vocabs)


def _parse_record(obj, vocabularies, lookups, line_no: int) -> RecordBags:
    """Resolve one record's token strings to indices; :class:`Corpus` checks the counts."""
    where = f"records line {line_no}"
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: expected a JSON object")
    record_id = obj.get("id")
    if not isinstance(record_id, str) or not record_id:
        raise CorpusError(f"{where}: missing or empty 'id'")
    time_bin = obj.get("time_bin")
    if time_bin is not None and not isinstance(time_bin, str):
        raise CorpusError(f"{where}: 'time_bin' must be a string when present")
    raw_bags = obj.get("bags", {})
    if not isinstance(raw_bags, dict):
        raise CorpusError(f"{where}: 'bags' must be an object")

    known = {v.type_name for v in vocabularies}
    for name in raw_bags:
        if name not in known:
            raise CorpusError(f"{where}: unknown type name {name!r}")

    bags = []
    for vocab, lookup in zip(vocabularies, lookups):
        raw = raw_bags.get(vocab.type_name, {})
        if not isinstance(raw, dict):
            raise CorpusError(f"{where}: bag for type {vocab.type_name!r} must be an object")
        bag = {}
        for token, count in raw.items():
            if token not in lookup:
                raise CorpusError(
                    f"{where}: unknown token {token!r} for type {vocab.type_name!r}"
                )
            bag[lookup[token]] = count
        bags.append(bag)
    return RecordBags(record_id=record_id, bags=tuple(bags), time_bin=time_bin)


def read_records_jsonl(path, vocabularies) -> Corpus:
    """Parse a records.jsonl file against already-loaded vocabularies.

    Types absent from a record's bags become empty bags; a record may appear
    once per (id, time_bin) pair so that time segments of one record can share
    an id. Returns the validated :class:`Corpus` of those records.
    """
    lookups = [v.index_of() for v in vocabularies]
    records = []
    seen = set()
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"records line {line_no}: invalid JSON ({exc.msg})") from exc
                except ValueError as exc:  # an integer literal too long to convert
                    raise CorpusError(f"records line {line_no}: {exc}") from exc
                rec = _parse_record(obj, vocabularies, lookups, line_no)
                key = (rec.record_id, rec.time_bin)
                if key in seen:
                    raise CorpusError(
                        f"records line {line_no}: duplicate record id {rec.record_id!r}"
                        + (f" for time_bin {rec.time_bin!r}" if rec.time_bin else "")
                    )
                seen.add(key)
                records.append(rec)
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return Corpus(vocabularies=vocabularies, records=tuple(records))


def load_corpus(path) -> Corpus:
    """Load and validate a corpus directory (vocab.json + records.jsonl).

    Token strings are resolved to indices against the per-type vocabularies.
    """
    vocab_path = os.path.join(path, VOCAB_FILENAME)
    records_path = os.path.join(path, RECORDS_FILENAME)
    try:
        with open(vocab_path, encoding="utf-8") as fh:
            raw_vocab = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{vocab_path}: invalid JSON at line {exc.lineno}") from exc
    except ValueError as exc:  # not UTF-8, or an integer literal too long to convert
        raise CorpusError(f"{vocab_path}: {exc}") from exc
    return read_records_jsonl(records_path, _parse_vocabularies(raw_vocab))


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus directory; inverse of :func:`load_corpus`."""
    os.makedirs(path, exist_ok=True)
    vocab_obj = {v.type_name: list(v.tokens) for v in corpus.vocabularies}
    with open(os.path.join(path, VOCAB_FILENAME), "w", encoding="utf-8") as fh:
        json.dump(vocab_obj, fh, ensure_ascii=False)
        fh.write("\n")
    with open(os.path.join(path, RECORDS_FILENAME), "w", encoding="utf-8") as fh:
        for rec in corpus.records:
            bags = {}
            for vocab, bag in zip(corpus.vocabularies, rec.bags):
                if bag:
                    bags[vocab.type_name] = {vocab.tokens[i]: c for i, c in sorted(bag.items())}
            obj = {"id": rec.record_id, "bags": bags}
            if rec.time_bin is not None:
                obj["time_bin"] = rec.time_bin
            fh.write(json.dumps(obj, ensure_ascii=False))
            fh.write("\n")
