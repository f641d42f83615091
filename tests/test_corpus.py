"""Corpus data model, JSONL parsing, and round-trip persistence."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenotopics.corpus import (
    Corpus,
    CorpusError,
    RecordBags,
    Vocabulary,
    load_corpus,
    save_corpus,
)


def write_corpus_dir(tmp_path, vocab_obj, record_lines):
    (tmp_path / "vocab.json").write_text(json.dumps(vocab_obj), encoding="utf-8")
    (tmp_path / "records.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in record_lines), encoding="utf-8"
    )
    return tmp_path


class TestLoadCorpus:
    def test_minimal_corpus(self, tmp_path):
        path = write_corpus_dir(
            tmp_path, {"dx": ["hiv", "htn"]}, [{"id": "p1", "bags": {"dx": {"hiv": 3}}}]
        )
        corpus = load_corpus(path)
        assert corpus.num_records == 1
        assert corpus.num_types == 1
        assert corpus.records[0].bags[0] == {0: 3}

    def test_token_strings_resolved_to_indices(self, tmp_path):
        path = write_corpus_dir(
            tmp_path,
            {"dx": ["a", "b", "c"], "labs": ["x", "y"]},
            [{"id": "p1", "bags": {"dx": {"c": 1, "a": 2}, "labs": {"y": 5}}}],
        )
        corpus = load_corpus(path)
        assert corpus.records[0].bags[0] == {2: 1, 0: 2}
        assert corpus.records[0].bags[1] == {1: 5}

    def test_missing_type_becomes_empty_bag(self, tmp_path):
        path = write_corpus_dir(
            tmp_path,
            {"dx": ["a"], "labs": ["x"]},
            [{"id": "p1", "bags": {"dx": {"a": 1}}}],
        )
        corpus = load_corpus(path)
        assert corpus.records[0].bags[1] == {}

    def test_unknown_token_rejected(self, tmp_path):
        path = write_corpus_dir(
            tmp_path, {"dx": ["a"]}, [{"id": "p1", "bags": {"dx": {"xyz": 1}}}]
        )
        with pytest.raises(CorpusError, match="unknown token 'xyz'"):
            load_corpus(path)

    def test_unknown_type_rejected(self, tmp_path):
        path = write_corpus_dir(
            tmp_path, {"dx": ["a"]}, [{"id": "p1", "bags": {"meds": {"a": 1}}}]
        )
        with pytest.raises(CorpusError, match="unknown type name 'meds'"):
            load_corpus(path)

    def test_empty_records_file_rejected(self, tmp_path):
        path = write_corpus_dir(tmp_path, {"dx": ["a"]}, [])
        with pytest.raises(CorpusError, match="no records"):
            load_corpus(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        (tmp_path / "vocab.json").write_text('{"dx": ["a"]}', encoding="utf-8")
        (tmp_path / "records.jsonl").write_text(
            '{"id": "p1", "bags": {}}\n{oops\n', encoding="utf-8"
        )
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(tmp_path)

    def test_duplicate_record_id_rejected(self, tmp_path):
        path = write_corpus_dir(
            tmp_path,
            {"dx": ["a"]},
            [{"id": "p1", "bags": {}}, {"id": "p1", "bags": {}}],
        )
        with pytest.raises(CorpusError, match="duplicate record id"):
            load_corpus(path)

    def test_same_id_with_distinct_time_bins_ok(self, tmp_path):
        path = write_corpus_dir(
            tmp_path,
            {"dx": ["a"]},
            [
                {"id": "p1", "time_bin": "2019", "bags": {"dx": {"a": 1}}},
                {"id": "p1", "time_bin": "2020", "bags": {}},
            ],
        )
        corpus = load_corpus(path)
        assert corpus.num_records == 2

    def test_zero_count_rejected(self, tmp_path):
        path = write_corpus_dir(
            tmp_path, {"dx": ["a"]}, [{"id": "p1", "bags": {"dx": {"a": 0}}}]
        )
        with pytest.raises(CorpusError, match="record 'p1': count for token 'a' .*positive"):
            load_corpus(path)

    def test_fractional_count_rejected(self, tmp_path):
        path = write_corpus_dir(
            tmp_path, {"dx": ["a"]}, [{"id": "p1", "bags": {"dx": {"a": 1.5}}}]
        )
        with pytest.raises(CorpusError, match="positive integer"):
            load_corpus(path)

    def test_boolean_count_rejected(self, tmp_path):
        path = write_corpus_dir(
            tmp_path, {"dx": ["a"]}, [{"id": "p1", "bags": {"dx": {"a": True}}}]
        )
        with pytest.raises(CorpusError, match="positive integer"):
            load_corpus(path)

    def test_count_cap_is_two_to_the_53(self, tmp_path):
        path = write_corpus_dir(
            tmp_path, {"dx": ["a"]}, [{"id": "p1", "bags": {"dx": {"a": 2**53}}}]
        )
        assert load_corpus(path).records[0].bags[0] == {0: 2**53}
        write_corpus_dir(tmp_path, {"dx": ["a"]}, [{"id": "p1", "bags": {"dx": {"a": 2**53 + 1}}}])
        with pytest.raises(CorpusError, match="up to 2\\*\\*53"):
            load_corpus(path)

    def test_integer_too_long_to_parse_rejected(self, tmp_path):
        path = write_corpus_dir(tmp_path, {"dx": ["a"]}, [{"id": "p1", "bags": {}}])
        (tmp_path / "records.jsonl").write_text(
            '{"id": "p1", "bags": {"dx": {"a": ' + "9" * 5000 + "}}}\n", encoding="utf-8"
        )
        with pytest.raises(CorpusError, match="records line 1"):
            load_corpus(path)
        (tmp_path / "vocab.json").write_text('{"dx": ["a", ' + "9" * 5000 + "]}")
        with pytest.raises(CorpusError, match="vocab.json"):
            load_corpus(path)

    def test_non_utf8_records_rejected(self, tmp_path):
        path = write_corpus_dir(tmp_path, {"dx": ["a"]}, [])
        (tmp_path / "records.jsonl").write_bytes(b'{"id": "p1", "bags": {}}\n\xff\xfe\n')
        with pytest.raises(CorpusError, match="not UTF-8"):
            load_corpus(path)

    def test_duplicate_vocab_tokens_rejected(self, tmp_path):
        path = write_corpus_dir(tmp_path, {"dx": ["a", "a"]}, [{"id": "p1", "bags": {}}])
        with pytest.raises(CorpusError, match="duplicate tokens"):
            load_corpus(path)


class TestCorpusValidation:
    """A Corpus built in memory obeys the file parser's count and index rules."""

    VOCABS = (Vocabulary("dx", ("a", "b")),)

    def test_boolean_count_rejected(self):
        with pytest.raises(CorpusError, match="positive integer"):
            Corpus(vocabularies=self.VOCABS, records=(RecordBags("r", ({0: True, 1: 2},)),))

    def test_count_cap_is_two_to_the_53(self):
        Corpus(vocabularies=self.VOCABS, records=(RecordBags("r", ({0: 2**53},)),))
        with pytest.raises(CorpusError, match="up to 2\\*\\*53"):
            Corpus(vocabularies=self.VOCABS, records=(RecordBags("r", ({0: 2**53 + 1},)),))

    def test_boolean_token_index_rejected(self):
        with pytest.raises(CorpusError, match="token index True"):
            Corpus(vocabularies=self.VOCABS, records=(RecordBags("r", ({True: 1},)),))


class TestSaveCorpus:
    def test_round_trip_preserves_empty_bags(self, tmp_path):
        vocabs = (Vocabulary("dx", ("a", "b")), Vocabulary("labs", ("x",)))
        records = (
            RecordBags("p1", ({0: 2, 1: 1}, {})),
            RecordBags("p2", ({}, {0: 4}), time_bin="2020"),
        )
        corpus = Corpus(vocabularies=vocabs, records=records)
        save_corpus(corpus, tmp_path / "c")
        assert load_corpus(tmp_path / "c") == corpus

    def test_unwritable_path_raises(self, tmp_path):
        corpus = Corpus(
            vocabularies=(Vocabulary("dx", ("a",)),),
            records=(RecordBags("p1", ({0: 1},)),),
        )
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(OSError):
            save_corpus(corpus, blocker / "sub")


token_st = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=6
)


@st.composite
def corpora(draw):
    num_types = draw(st.integers(1, 3))
    vocabs = []
    for m in range(num_types):
        tokens = draw(st.lists(token_st, min_size=1, max_size=6, unique=True))
        vocabs.append(Vocabulary(f"type{m}", tuple(tokens)))
    num_records = draw(st.integers(1, 4))
    records = []
    for d in range(num_records):
        bags = []
        for vocab in vocabs:
            entries = draw(
                st.dictionaries(
                    st.integers(0, vocab.size - 1), st.integers(1, 9), max_size=vocab.size
                )
            )
            bags.append(entries)
        time_bin = draw(st.none() | st.sampled_from(["t0", "t1"]))
        records.append(RecordBags(f"rec{d}", tuple(bags), time_bin=time_bin))
    return Corpus(vocabularies=tuple(vocabs), records=tuple(records))


@settings(max_examples=40, deadline=None)
@given(corpora())
def test_round_trip_identity(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("corpus")
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


@settings(max_examples=40, deadline=None)
@given(corpora())
def test_total_counts_conserved_under_round_trip(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("corpus")
    save_corpus(corpus, path)
    reloaded = load_corpus(path)
    for orig, back in zip(corpus.records, reloaded.records):
        assert [sum(bag.values()) for bag in orig.bags] == [
            sum(bag.values()) for bag in back.bags
        ]
