"""End-to-end CLI runs: exit codes, artifacts, manifests, reproducibility."""

import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenotopics import cli, learning, numerics, summarize, variational
from phenotopics.cli import main
from phenotopics.corpus import Corpus, RecordBags, Vocabulary, save_corpus
from phenotopics.learning import TrainConfig, TrainedModel, save_model, vocab_fingerprint
from phenotopics.summarize import SANKEY_SCHEMA
from phenotopics.synth import Scenario, save_scenario

from .conftest import crawling_k50_record, two_block_corpus


# deeper than json's recursion limit allows
DEEPLY_NESTED = "[" * 5000 + "]" * 5000


def _set_dx_tokens(payload, tokens):
    """Replace a model payload's dx token list and store the fingerprint of
    the tokens as stored, so that a load gets past the fingerprint check."""
    payload["vocabularies"]["dx"] = tokens
    payload["vocab_fingerprint"] = vocab_fingerprint(
        SimpleNamespace(type_name=name, tokens=t) for name, t in payload["vocabularies"].items()
    )


@pytest.fixture
def corpus_dir(tmp_path):
    path = tmp_path / "corpus"
    save_corpus(two_block_corpus(), path)
    return path


@pytest.fixture
def trained(tmp_path, corpus_dir):
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--corpus", str(corpus_dir),
            "--k", "2",
            "--seed", "5",
            "--max-em-iters", "40",
            "--em-tol", "1e-6",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestTrain:
    def test_writes_model_history_manifest(self, trained):
        assert (trained / "model.json").exists()
        assert (trained / "history.csv").exists()
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 5
        assert manifest["converged"] is True
        assert manifest["nonconverged_records"] == 0
        assert "wall_time_s" in manifest

    def test_history_is_objective_per_iteration(self, trained):
        with open(trained / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(r["objective"]) for r in rows]
        assert len(values) >= 2
        assert all(np.isfinite(values))

    def test_k_below_two_is_argument_error(self, corpus_dir, tmp_path):
        code = main(
            ["train", "--corpus", str(corpus_dir), "--k", "1", "--seed", "0",
             "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_missing_required_flag_is_argument_error(self, corpus_dir, tmp_path):
        code = main(["train", "--corpus", str(corpus_dir), "--seed", "0",
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_missing_corpus_path_is_io_error(self, tmp_path):
        code = main(
            ["train", "--corpus", str(tmp_path / "nope"), "--k", "2", "--seed", "0",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_count_beyond_float_precision_is_io_error(self, tmp_path, capsys):
        corpus = tmp_path / "huge"
        corpus.mkdir()
        (corpus / "vocab.json").write_text(json.dumps({"dx": ["a", "b"]}))
        (corpus / "records.jsonl").write_text(
            '{"id": "p1", "bags": {"dx": {"a": ' + "9" * 400 + ', "b": 1}}}\n'
        )
        code = main(["train", "--corpus", str(corpus), "--k", "2", "--seed", "0",
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "2**53" in err and "Traceback" not in err

    def test_empty_vocabulary_is_io_error(self, tmp_path, capsys):
        corpus = tmp_path / "empty_vocab"
        corpus.mkdir()
        (corpus / "vocab.json").write_text(json.dumps({"a": [], "b": ["x", "y"]}))
        (corpus / "records.jsonl").write_text('{"id": "p1", "bags": {"b": {"x": 2}}}\n')
        code = main(["train", "--corpus", str(corpus), "--k", "2", "--seed", "0",
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "no tokens" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, name, content",
        [
            ("train", "records.jsonl", b'{"id": "p1", "bags": {"dx": {"w0": ' + b"9" * 5000
             + b"}}}\n"),
            ("train", "records.jsonl", b"\xff\xfe\n"),
            ("train", "records.jsonl", DEEPLY_NESTED.encode() + b"\n"),
            ("coverage", "vocab.json", b'{"dx": ["w0", ' + b"9" * 5000 + b"]}"),
            ("coverage", "vocab.json", b"\xff\xfe{}"),
            ("coverage", "vocab.json", DEEPLY_NESTED.encode()),
        ],
        ids=["records-huge-int", "records-not-utf8", "records-deeply-nested",
             "vocab-huge-int", "vocab-not-utf8", "vocab-deeply-nested"],
    )
    def test_corpus_file_that_does_not_parse_is_io_error(
        self, trained, tmp_path, capsys, command, name, content
    ):
        corpus = tmp_path / "bad_corpus"
        save_corpus(two_block_corpus(), corpus)
        (corpus / name).write_bytes(content)
        flags = {"train": ["--k", "2", "--seed", "0"],
                 "coverage": ["--model", str(trained / "model.json")]}[command]
        code = main([command, "--corpus", str(corpus), *flags, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_records_line_nested_past_the_c_stack_exits_2(self, tmp_path):
        # parsed by orjson, this line's 200,000 levels would overflow an 8 MB C
        # stack and kill the process, so the load runs in a child
        corpus = tmp_path / "deep_corpus"
        save_corpus(two_block_corpus(), corpus)
        (corpus / "records.jsonl").write_text("[" * 200_000 + "]" * 200_000 + "\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        child = f"import sys; sys.path.insert(0, {src!r}); from phenotopics.cli import main; " \
                "sys.exit(main())"
        proc = subprocess.run(
            [sys.executable, "-c", child, "train", "--corpus", str(corpus), "--k", "2",
             "--seed", "0", "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_non_convergence_exits_3_but_writes_model(self, corpus_dir, tmp_path):
        out = tmp_path / "short"
        code = main(
            ["train", "--corpus", str(corpus_dir), "--k", "2", "--seed", "5",
             "--max-em-iters", "1", "--out", str(out)]
        )
        assert code == 3
        assert (out / "model.json").exists()

    def test_reruns_are_byte_identical(self, corpus_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(
                ["train", "--corpus", str(corpus_dir), "--k", "2", "--seed", "9",
                 "--max-em-iters", "6", "--out", str(out)]
            ) in (0, 3)
            outs.append(out)
        assert (outs[0] / "model.json").read_bytes() == (outs[1] / "model.json").read_bytes()
        assert (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()

    def test_thread_count_does_not_change_outputs(self, corpus_dir, tmp_path):
        outs = []
        for name, threads in (("t1", "1"), ("t4", "4")):
            out = tmp_path / name
            assert main(
                ["train", "--corpus", str(corpus_dir), "--k", "2", "--seed", "9",
                 "--max-em-iters", "6", "--threads", threads, "--out", str(out)]
            ) in (0, 3)
            outs.append(out)
        assert (outs[0] / "model.json").read_bytes() == (outs[1] / "model.json").read_bytes()

    def test_config_file_supplies_defaults(self, corpus_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        # an integer is a valid number for a float flag such as --em-tol
        cfg.write_text(json.dumps(
            {"k": 2, "seed": 5, "max_em_iters": 3, "em_tol": 0}
        ))
        out = tmp_path / "o"
        code = main(
            ["train", "--corpus", str(corpus_dir), "--config", str(cfg),
             "--out", str(out)]
        )
        assert code in (0, 3)
        assert (out / "model.json").exists()

    def test_config_file_unknown_key_rejected(self, corpus_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(
            ["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--k", "2",
             "--seed", "0", "--out", str(tmp_path / "o")]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "command, text, expected",
        [
            ("phenotypes", '{"top_n": null}', 1),
            ("train", '{"k": 2.5}', 1),
            ("train", '{"help": true}', 1),
            ("train", '{"max_em_iters": ' + "9" * 5000 + "}", 2),
            ("train", b"\xff\xfe{}", 2),
            ("train", DEEPLY_NESTED, 2),
        ],
        ids=["null-int", "float-for-int", "help-key", "huge-int", "not-utf8", "deeply-nested"],
    )
    def test_bad_config_value_exits_without_traceback(
        self, trained, corpus_dir, tmp_path, capsys, command, text, expected
    ):
        cfg = tmp_path / "cfg.json"
        if isinstance(text, bytes):
            cfg.write_bytes(text)
        else:
            cfg.write_text(text)
        flags = {
            "train": ["--corpus", str(corpus_dir), "--k", "2", "--seed", "0"],
            "phenotypes": ["--model", str(trained / "model.json"), "--label-type", "dx"],
        }[command]
        code = main([command, *flags, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == expected
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("em_tol", ["nan", "-1e-5"])
    def test_em_tol_that_can_never_be_met_is_argument_error(self, corpus_dir, tmp_path, em_tol):
        out = tmp_path / "o"
        code = main(["train", "--corpus", str(corpus_dir), "--k", "2", "--seed", "0",
                     "--em-tol", em_tol, "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_negative_seed_is_argument_error(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["train", "--corpus", str(corpus_dir), "--k", "2", "--seed", "-1",
                     "--out", str(out)])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_k_too_large_for_numpy_is_argument_error(self, corpus_dir, tmp_path, capsys, via):
        # TrainConfig refuses this K before anything is allocated
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 10**30}))
        k_flags = ["--k", str(10**30)] if via == "flag" else ["--config", str(cfg)]
        out = tmp_path / "o"
        code = main(["train", "--corpus", str(corpus_dir), *k_flags, "--seed", "0",
                     "--out", str(out)])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_allocation_failure_is_argument_error(self, corpus_dir, tmp_path, capsys, monkeypatch):
        def refuse(corpus, cfg):
            raise MemoryError("Unable to allocate 14.6 TiB for an array")

        monkeypatch.setattr(learning, "initialize", refuse)
        out = tmp_path / "o"
        code = main(["train", "--corpus", str(corpus_dir), "--k", "2", "--seed", "0",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Unable to allocate" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", ["--doc-tol", "--beta-smoothing", "--noise-scale", "--freeze-prior"]
    )
    def test_retired_training_flags_are_argument_errors(self, corpus_dir, tmp_path, flag):
        code = main(
            ["train", "--corpus", str(corpus_dir), "--k", "2", "--seed", "0",
             flag, "1e-4", "--out", str(tmp_path / "o")]
        )
        assert code == 1


class TestTrainOnPreset:
    def test_smoke_run_on_preset_corpus(self, tmp_path):
        # end-to-end: sample the bundled separable preset, persist a slice of
        # it as a corpus directory, train K=5 through the CLI
        from phenotopics.corpus import Corpus
        from phenotopics.synth import get_preset, sample_scenario

        full, _ = sample_scenario(get_preset("separable"), seed=1)
        corpus = Corpus(vocabularies=full.vocabularies, records=full.records[:60])
        corpus_path = tmp_path / "preset_corpus"
        save_corpus(corpus, corpus_path)
        out = tmp_path / "run"
        code = main(
            ["train", "--corpus", str(corpus_path), "--k", "5", "--seed", "1",
             "--em-tol", "1e-3", "--max-em-iters", "30", "--out", str(out)]
        )
        assert code == 0
        assert (out / "model.json").exists()
        assert (out / "history.csv").exists()


    def test_thread_count_does_not_change_outputs_across_blocks(self, tmp_path):
        # 1,200 records of the overlapping preset span several E-step
        # blocks, so threads really split the partition
        from dataclasses import replace

        from phenotopics.corpus import load_corpus
        from phenotopics.synth import get_preset, sample_scenario

        corpus, _ = sample_scenario(replace(get_preset("overlapping"), D=1200), seed=3)
        assert len(learning._blocks(corpus.records)) >= 3
        corpus_path = tmp_path / "corpus"
        save_corpus(corpus, corpus_path)
        outs = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"t{threads}"
            assert main(
                ["train", "--corpus", str(corpus_path), "--k", "4", "--seed", "3",
                 "--max-em-iters", "3", "--threads", threads, "--out", str(out)]
            ) in (0, 3)
            outs.append(out)
        for name in ("model.json", "history.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            assert (outs[0] / name).read_bytes() == (outs[2] / name).read_bytes()

        model = learning.load_model(outs[0] / "model.json")
        corpus = load_corpus(corpus_path)
        attached = [learning.attach_posteriors(model, corpus, threads=t) for t in (1, 2, 3)]
        for other in attached[1:]:
            for a, b in zip(attached[0].doc_posteriors, other.doc_posteriors):
                for field in ("nu_hat", "nu_cov", "expected_counts", "proportions"):
                    np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
                assert (a.elbo, a.converged, a.iterations) == (b.elbo, b.converged, b.iterations)


class TestPhenotypes:
    def test_writes_report_and_graph(self, trained, tmp_path):
        out = tmp_path / "phen"
        code = main(
            ["phenotypes", "--model", str(trained / "model.json"), "--top-n", "3",
             "--label-type", "dx", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "phenotypes.json").read_text())
        assert len(report) == 2
        assert report[0]["label_type"] == "dx"
        graph = json.loads((out / "relatedness.json").read_text())
        assert graph["threshold"] == 0.5
        assert (out / "relatedness.csv").exists()

    def test_threshold_one_gives_empty_edges(self, trained, tmp_path):
        out = tmp_path / "phen1"
        code = main(
            ["phenotypes", "--model", str(trained / "model.json"), "--label-type", "dx",
             "--corr-threshold", "1.0", "--out", str(out)]
        )
        assert code == 0
        assert json.loads((out / "relatedness.json").read_text())["edges"] == []

    def test_correlated_model_yields_edges_at_default_threshold(self, tmp_path):
        # a model whose prior carries a strong pair correlation produces a
        # non-empty edge file at the default 0.5 threshold
        import numpy as np

        from phenotopics.learning import TrainConfig, TrainedModel, save_model, vocab_fingerprint
        from phenotopics.corpus import Vocabulary
        from phenotopics.variational import ModelParams

        vocab = (Vocabulary("dx", ("a", "b", "c")),)
        sigma = np.eye(3)
        sigma[0, 1] = sigma[1, 0] = 0.8
        params = ModelParams.create(
            np.zeros(3), sigma, [np.log(np.full((3, 3), 1.0 / 3))]
        )
        model = TrainedModel(
            params=params, vocabularies=vocab, doc_posteriors=[], history=[],
            config=TrainConfig(K=3), vocab_fingerprint=vocab_fingerprint(vocab),
            converged=True,
        )
        model_path = tmp_path / "corr_model.json"
        save_model(model, model_path)
        out = tmp_path / "phen"
        code = main(
            ["phenotypes", "--model", str(model_path), "--label-type", "dx",
             "--out", str(out)]
        )
        assert code == 0
        edges = json.loads((out / "relatedness.json").read_text())["edges"]
        assert edges and edges[0]["rho"] == pytest.approx(0.8)
        assert (out / "relatedness.csv").read_text().count("\n") == 2  # header + 1 edge

    def test_unknown_label_type_is_argument_error(self, trained, tmp_path):
        code = main(
            ["phenotypes", "--model", str(trained / "model.json"),
             "--label-type", "meds", "--out", str(tmp_path / "p")]
        )
        assert code == 1

    def test_corrupt_model_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(
            ["phenotypes", "--model", str(bad), "--label-type", "dx",
             "--out", str(tmp_path / "p")]
        )
        assert code == 2

    def test_model_nested_past_the_c_stack_exits_2(self, tmp_path):
        # parsed by orjson, these 200,000 levels would overflow an 8 MB C stack
        # and kill the process, so the load runs in a child
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200_000 + "]" * 200_000)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        child = f"import sys; sys.path.insert(0, {src!r}); from phenotopics.cli import main; " \
                "sys.exit(main())"
        proc = subprocess.run(
            [sys.executable, "-c", child, "phenotypes", "--model", str(bad), "--label-type", "dx",
             "--out", str(tmp_path / "p")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_tiny_prior_variances_give_valid_json_edges(self, trained, tmp_path):
        # d_i d_j underflows to 0 here, which once wrote "rho": Infinity
        payload = json.loads((trained / "model.json").read_text())
        payload["sigma0"] = [1e-200, 6e-201, 6e-201, 1e-200]
        model = tmp_path / "tiny.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "p"
        assert main(["phenotypes", "--model", str(model), "--label-type", "dx",
                     "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        graph = json.loads((out / "relatedness.json").read_text(), parse_constant=reject)
        assert [edge["rho"] for edge in graph["edges"]] == [pytest.approx(0.6, abs=1e-15)]

    @pytest.mark.parametrize(
        "corrupt, expected",
        [
            (lambda p: p.update(sigma0=[1.0, 2.0, 2.0, 1.0]), 2),  # not positive definite
            (lambda p: p["sigma0"].__setitem__(1, p["sigma0"][1] + 1e-6), 2),  # [0][1] != [1][0]
            (lambda p: p["log_beta"]["dx"].__setitem__(0, 0.0), 2),  # row sums past 1
            (lambda p: p.update(mu0=p["mu0"][:1]), 2),
            (lambda p: p.update(K="<huge>"), 2),  # a 5,000-digit integer literal
            (lambda p: p.update(K=float("inf")), 2),
            (lambda p: p.update(vocabularies=[]), 2),
            (lambda p: p.update(history=5), 2),
            (lambda p: p.update(vocab_fingerprint=5), 4),
            (lambda p: p.update(K=2.5), 2),
            (lambda p: p["config"].update(K=3), 2),
            (lambda p: p.update(M=7), 2),
            (lambda p: p.update(history="abc"), 2),
            (lambda p: p.update(converged="no"), 2),
            (lambda p: p.update(mu0=1.0), 2),
            (lambda p: p["vocabularies"].update(dx=[]), 2),
            (lambda p: p["config"].update(seed="abc"), 2),
            (lambda p: p["config"].update(seed=-1), 2),
            (lambda p: p["config"].update(update_prior="no"), 2),
            (lambda p: p["config"].update(max_em_iters=1.5), 2),
            (lambda p: p["config"].update(em_tol=True), 2),
            (lambda p: _set_dx_tokens(p, [1, 2, 3, 4, 5, 6]), 2),
            (lambda p: _set_dx_tokens(p, [True, False, None, 1.5, "a", "b"]), 2),
            (lambda p: _set_dx_tokens(p, "abcdef"), 2),
            (lambda p: p["history"].append(float("nan")), 2),  # json reads all three
            (lambda p: p["history"].append(float("inf")), 2),
            (lambda p: p["history"].append("<1e400>"), 2),
            (lambda p: p.update(K=2**64 + 2), 2),  # orjson reads it as a float
            (lambda p: p.update(mu0="<deep>"), 2),
        ],
        ids=["sigma0-not-pd", "sigma0-asymmetric", "row-sum", "mu0-short", "huge-K", "infinite-K",
             "vocabularies-list", "history-int", "fingerprint-int", "fractional-K",
             "config-K-differs", "M-differs", "history-string", "converged-string",
             "mu0-scalar", "empty-vocabulary", "config-seed-string", "config-seed-negative",
             "config-update-prior-string", "config-max-em-iters-fractional",
             "config-em-tol-bool", "tokens-ints", "tokens-mixed", "tokens-string",
             "nan-literal", "infinity-literal", "overflowing-literal", "K-past-64-bits",
             "deeply-nested"],
    )
    def test_model_that_is_not_a_model_exits_without_traceback(
        self, trained, tmp_path, capsys, corrupt, expected
    ):
        payload = json.loads((trained / "model.json").read_text())
        corrupt(payload)
        text = json.dumps(payload)
        for placeholder, literal in [("<huge>", "9" * 5000), ("<1e400>", "1e400"),
                                     ("<deep>", DEEPLY_NESTED)]:
            text = text.replace(f'"{placeholder}"', literal)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(
            ["phenotypes", "--model", str(bad), "--label-type", "dx",
             "--out", str(tmp_path / "p")]
        )
        assert code == expected
        assert "Traceback" not in capsys.readouterr().err


class TestSummarize:
    def write_segments(self, tmp_path, lines):
        path = tmp_path / "segments.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        return path

    def test_writes_trajectory_and_valid_sankey(self, trained, tmp_path):
        record_file = self.write_segments(
            tmp_path,
            [
                {"id": "p1", "time_bin": f"y{i}", "bags": {"dx": {"w0": 3 + i, "w4": 5 - i}}}
                for i in range(5)
            ],
        )
        out = tmp_path / "sum"
        code = main(
            ["summarize", "--model", str(trained / "model.json"),
             "--record-file", str(record_file), "--top-n", "2", "--out", str(out)]
        )
        assert code == 0
        sankey = json.loads((out / "sankey_p1.json").read_text())
        jsonschema.validate(sankey, SANKEY_SCHEMA)
        assert sankey["bins"] == [f"y{i}" for i in range(5)]
        assert (out / "trajectory_p1.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "p1" in manifest["outputs"]

    def test_record_id_cannot_leave_out_dir(self, trained, tmp_path):
        record_file = self.write_segments(
            tmp_path, [{"id": "../../escape", "bags": {"dx": {"w0": 2}}}]
        )
        out = tmp_path / "deep" / "sum"
        code = main(
            ["summarize", "--model", str(trained / "model.json"),
             "--record-file", str(record_file), "--out", str(out)]
        )
        assert code == 0
        written = json.loads((out / "manifest.json").read_text())["outputs"]["../../escape"]
        for path in written.values():
            assert (out / path).resolve().parent == out.resolve()
            assert (out / path).is_file()
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "sankey_..%2F..%2Fescape.json", "trajectory_..%2F..%2Fescape.csv"
        ]

    def test_default_top_n_is_five(self, trained, tmp_path):
        record_file = self.write_segments(
            tmp_path, [{"id": "p1", "bags": {"dx": {"w0": 2}}}]
        )
        out = tmp_path / "sum"
        code = main(
            ["summarize", "--model", str(trained / "model.json"),
             "--record-file", str(record_file), "--out", str(out)]
        )
        assert code == 0
        sankey = json.loads((out / "sankey_p1.json").read_text())
        # top_n clamps to K=2 phenotypes; selection set size = min(5, K)
        assert len({n["phenotype"] for n in sankey["nodes"]}) == 2

    def test_model_file_with_retired_config_keys_summarizes_identically(
        self, trained, tmp_path
    ):
        # model files written while these were TrainConfig fields carry them
        payload = json.loads((trained / "model.json").read_text())
        assert set(payload["config"]).isdisjoint(
            {"beta_smoothing", "noise_scale", "doc_tol", "update_prior"}
        )
        payload["config"].update(
            beta_smoothing=1e-8, noise_scale=1.0, doc_tol=1e-4, doc_max_outer=100,
            update_prior=True,
        )
        old = tmp_path / "old_model.json"
        old.write_text(json.dumps(payload))
        record_file = self.write_segments(
            tmp_path,
            [{"id": "p1", "time_bin": f"y{i}", "bags": {"dx": {"w1": 1 + i, "w5": 4}}}
             for i in range(3)],
        )
        outs = []
        for name, model in (("new", trained / "model.json"), ("old", old)):
            out = tmp_path / name
            assert main(["summarize", "--model", str(model), "--record-file",
                         str(record_file), "--out", str(out)]) == 0
            outs.append(out)
        for name in ("trajectory_p1.csv", "sankey_p1.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_manifest_counts_nonconverged_segments(self, trained, tmp_path, monkeypatch):
        # one Newton step from the cold start already converges these
        # segments, so cap at 0: each stops at its start
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITERS", 0)
        posteriors = []

        def infer_block(*args, **kwargs):
            result = variational.infer_block(*args, **kwargs)
            posteriors.extend(result[0])
            return result

        monkeypatch.setattr(summarize, "infer_block", infer_block)
        record_file = self.write_segments(
            tmp_path,
            [{"id": rid, "time_bin": f"y{i}", "bags": {"dx": {"w0": 3 + i, "w4": 5 - i}}}
             for rid in ("p1", "p2") for i in range(3)],
        )
        out = tmp_path / "sum"
        assert main(["summarize", "--model", str(trained / "model.json"),
                     "--record-file", str(record_file), "--out", str(out)]) == 0
        assert len(posteriors) == 6
        expected = sum(not post.converged for post in posteriors)
        assert expected > 0
        assert json.loads((out / "manifest.json").read_text())["nonconverged_records"] == expected

    def test_empty_record_file_is_io_error(self, trained, tmp_path):
        record_file = tmp_path / "empty.jsonl"
        record_file.write_text("")
        code = main(
            ["summarize", "--model", str(trained / "model.json"),
             "--record-file", str(record_file), "--out", str(tmp_path / "s")]
        )
        assert code == 2


class TestEval:
    def scenario_file(self, tmp_path):
        scenario = Scenario(
            name="mini", K=3, M=1, vocab_size=12, D=60, tokens_per_type=30,
            block_mass=0.95,
        )
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        return path

    def test_recovery_report_written_and_threshold_met(self, tmp_path):
        out = tmp_path / "eval"
        code = main(
            ["eval", "--scenario", str(self.scenario_file(tmp_path)), "--seed", "4",
             "--max-em-iters", "150", "--tv-threshold", "0.2", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "recovery.json").read_text())
        assert report["mean_tv"] <= 0.2
        assert sorted(report["matching"]) == [0, 1, 2]

    def test_impossible_threshold_exits_3(self, tmp_path):
        out = tmp_path / "eval3"
        code = main(
            ["eval", "--scenario", str(self.scenario_file(tmp_path)), "--seed", "4",
             "--max-em-iters", "3", "--tv-threshold", "0.0", "--out", str(out)]
        )
        assert code == 3
        assert (out / "recovery.json").exists()

    def test_manifest_counts_nonconverged_records(self, tmp_path, monkeypatch):
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITERS", 1)
        models = []

        def train(*args, **kwargs):
            models.append(learning.train(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(cli, "train", train)
        out = tmp_path / "e"
        code = main(
            ["eval", "--scenario", str(self.scenario_file(tmp_path)), "--seed", "4",
             "--max-em-iters", "2", "--tv-threshold", "0", "--out", str(out)]
        )
        assert code == 3
        expected = sum(not post.converged for post in models[0].doc_posteriors)
        assert expected > 0
        assert json.loads((out / "manifest.json").read_text())["nonconverged_records"] == expected

    def test_scenario_with_a_trillion_types_exits_1_at_once(self, tmp_path):
        # the topic-entry bound rejects the scenario before anything M-sized
        # is built. Should it not, build_truth's first M-sized step asks for
        # 8 TB at once, and the child's address-space cap makes the kernel
        # refuse that request before any page is touched, whatever the
        # machine's overcommit policy.
        pytest.importorskip("resource")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(TINY_SCENARIO, M=10**12)))
        out = tmp_path / "e"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        child = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
            f"sys.path.insert(0, {src!r}); "
            "from phenotopics.cli import main; sys.exit(main())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, "eval", "--scenario", str(path), "--seed", "1",
             "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        )
        assert proc.returncode == 1
        assert "topic entries" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_scenario_past_the_topic_entry_bound_exits_1_in_under_a_second(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(TINY_SCENARIO, M=10**6, vocab_size=100)))
        out = tmp_path / "e"
        started = time.process_time()
        code = main(["eval", "--scenario", str(path), "--seed", "1", "--out", str(out)])
        assert code == 1
        assert time.process_time() - started < 1.0
        assert not out.exists()

    def test_preset_or_scenario_required(self, tmp_path):
        assert main(["eval", "--seed", "1", "--out", str(tmp_path / "e")]) == 1

    def test_unknown_preset_is_argument_error(self, tmp_path):
        code = main(["eval", "--preset", "nope", "--seed", "1",
                     "--out", str(tmp_path / "e")])
        assert code == 1

    def test_more_phenotypes_than_tokens_is_argument_error(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"name": "wide", "K": 50, "M": 1, "vocab_size": 10,
                                    "D": 5, "tokens_per_type": 4}))
        code = main(["eval", "--scenario", str(path), "--seed", "1",
                     "--out", str(tmp_path / "e")])
        assert code == 1

    def test_k_differing_from_scenario_rejected_before_training(self, tmp_path):
        out = tmp_path / "e"
        code = main(["eval", "--scenario", str(self.scenario_file(tmp_path)), "--k", "4",
                     "--seed", "4", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, expected",
        [
            (b"\xff\xfe{}", 2),
            (b'{"K": ' + b"9" * 5000 + b"}", 2),
            (b"[1, 2]", 2),
            (b'{"name": "x"', 2),
            (b'{"name": "x", "K": 2.5, "M": 1, "vocab_size": 6, "D": 3, "tokens_per_type": 4}',
             1),
            (b'{"name": "x", "M": 1, "vocab_size": 6, "D": 3, "tokens_per_type": 4}', 1),
            (b'{"name": "x", "K": 2, "M": 1, "vocab_size": 6, "D": 3, "tokens_per_type": 4,'
             b' "bogus": 1}', 1),
            (b'{"name": "x", "K": 2, "M": 1, "vocab_size": 6, "D": 3, "tokens_per_type": 4,'
             b' "sigma0_pairs": [[0, 1]]}', 1),
            (b'{"name": "x", "K": 1, "M": 1, "vocab_size": 6, "D": 3, "tokens_per_type": 4}', 1),
            (b'{"name": "x", "K": 2, "M": 1, "vocab_size": 6, "D": 3, "tokens_per_type": 4,'
             b' "sigma0_pairs": [[0, 1, 2.0]]}', 1),
            (b'{"name": "x", "K": 2, "M": 1, "vocab_size": 6, "D": 3, "tokens_per_type": 1'
             + b"0" * 30 + b"}", 1),
            (DEEPLY_NESTED.encode(), 2),
        ],
        ids=["not-utf8", "huge-int", "list", "truncated", "float-K", "missing-K", "unknown-key",
             "short-pair", "one-phenotype", "sigma0-indefinite", "tokens-past-max-count",
             "deeply-nested"],
    )
    def test_malformed_scenario_exits_without_traceback(
        self, tmp_path, capsys, content, expected
    ):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        out = tmp_path / "e"
        code = main(["eval", "--scenario", str(path), "--seed", "1", "--out", str(out)])
        assert code == expected
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--tv-threshold", "nan"),
            ("--tv-threshold", "-0.1"),
            ("--tv-threshold", "1.5"),
            ("--corr-threshold", "nan"),
            ("--corr-threshold", "-0.1"),
            ("--corr-threshold", "1.5"),
        ],
    )
    def test_threshold_outside_unit_interval_is_argument_error(self, tmp_path, flag, value):
        out = tmp_path / "e"
        code = main(["eval", "--scenario", str(self.scenario_file(tmp_path)), "--seed", "4",
                     flag, value, "--out", str(out)])
        assert code == 1
        assert not out.exists()


# A valid scenario small enough that one EM iteration takes milliseconds.
TINY_SCENARIO = {
    "name": "tiny", "K": 2, "M": 1, "vocab_size": 4, "D": 3, "tokens_per_type": 5,
    "block_mass": 0.9, "block_overlap": 0, "sigma0_pairs": [[0, 1, 0.5]],
}
# Replacement values of every JSON type but integer, so no mutation can ask
# for a large corpus.
NON_INTEGER_JSON = st.one_of(
    st.text(max_size=5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.lists(st.one_of(st.text(max_size=3), st.booleans(), st.none()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.booleans(), max_size=2),
)


@st.composite
def mutated_scenarios(draw):
    raw = dict(TINY_SCENARIO)
    kind = draw(st.sampled_from(["replace", "drop", "add", "wrap"]))
    if kind == "replace":
        raw[draw(st.sampled_from(sorted(raw)))] = draw(NON_INTEGER_JSON)
    elif kind == "drop":
        del raw[draw(st.sampled_from(sorted(raw)))]
    elif kind == "add":
        raw[draw(st.text(max_size=8).filter(lambda key: key not in raw))] = draw(NON_INTEGER_JSON)
    else:
        return [raw]
    return raw


class TestEvalScenarioProperty:
    def test_tiny_scenario_is_valid(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(TINY_SCENARIO))
        code = main(["eval", "--scenario", str(path), "--seed", "1", "--max-em-iters", "1",
                     "--out", str(tmp_path / "out")])
        assert code in (0, 3)

    @settings(max_examples=60, deadline=None)
    @given(scenario=mutated_scenarios())
    def test_mutated_scenario_ends_in_documented_exit_code(self, scenario):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scenario.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scenario, fh)
            out = os.path.join(tmp, "out")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["eval", "--scenario", path, "--seed", "1", "--max-em-iters", "1",
                             "--out", out])
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()
            assert sorted(os.listdir(tmp)) in (["scenario.json"], ["out", "scenario.json"])


# Replacement values of any JSON type; integers stay small so that no
# mutation asks for a large model or corpus.
ANY_JSON = st.one_of(NON_INTEGER_JSON, st.integers(-2, 5))
# Replacements for one entry of a model's numeric arrays: any JSON value, or a
# float at the edge of binary64's range.
ANY_ENTRY = st.one_of(ANY_JSON, st.sampled_from([1e308, -1e308, 1e-300, 1e300]))
BAD_COUNTS = st.sampled_from([0, -1, 1.5, True, "3"])


def _field_mutation(draw, obj):
    """``obj`` with one field's value replaced or dropped, or ``obj`` wrapped in a list."""
    kind = draw(st.sampled_from(["replace", "drop", "wrap"]))
    if kind == "wrap":
        return [obj]
    obj = dict(obj)
    key = draw(st.sampled_from(sorted(obj)))
    if kind == "replace":
        obj[key] = draw(ANY_JSON)
    else:
        del obj[key]
    return obj


@st.composite
def mutated_models(draw, payload):
    payload = copy.deepcopy(payload)
    kind = draw(st.sampled_from(["field", "config", "empty-tokens", "tokens", "count", "entry"]))
    if kind == "field":
        return _field_mutation(draw, payload)
    if kind == "config":
        payload["config"] = _field_mutation(draw, payload["config"])
        return payload
    if kind == "empty-tokens":
        payload["vocabularies"]["dx"] = []
    elif kind == "tokens":
        payload["vocabularies"]["dx"] = draw(st.one_of(ANY_JSON, st.lists(ANY_JSON, max_size=6)))
    elif kind == "entry":
        values = draw(st.sampled_from(
            [payload["mu0"], payload["sigma0"], *payload["log_beta"].values()]
        ))
        values[draw(st.integers(0, len(values) - 1))] = draw(ANY_ENTRY)
    else:
        payload[draw(st.sampled_from(["K", "M"]))] = draw(BAD_COUNTS)
    return payload


@st.composite
def mutated_corpora(draw, vocab, records):
    """``(vocab, records)`` with one mutation in one of the two files."""
    vocab, records = copy.deepcopy(vocab), copy.deepcopy(records)
    if draw(st.booleans()):
        if draw(st.booleans()):
            vocab = _field_mutation(draw, vocab)
        else:
            vocab["dx"] = []
        return vocab, records
    i = draw(st.integers(0, len(records) - 1))
    kind = draw(st.sampled_from(["field", "bag", "count"]))
    if kind == "field":
        records[i] = _field_mutation(draw, records[i])
    elif kind == "bag":
        records[i]["bags"] = _field_mutation(draw, records[i]["bags"])
    else:
        bag = records[i]["bags"]["dx"]
        bag[draw(st.sampled_from(sorted(bag)))] = draw(BAD_COUNTS)
    return vocab, records


def _write_json_lines(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(value) + "\n" for value in values))


def _paths_outside(root, out):
    found = []
    for parent, dirs, files in os.walk(root):
        found += [os.path.join(parent, name) for name in dirs + files]
    return sorted(p for p in found if p != out and not p.startswith(out + os.sep))


def _assert_documented_run(tmp, argv):
    """``main`` on ``argv`` ends in a documented code and writes only inside ``--out``."""
    out = os.path.join(tmp, "out")
    before = _paths_outside(tmp, out)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--threads", "1", "--out", out])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert _paths_outside(tmp, out) == before


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """The CLI fixture corpus and a model trained on it, as parsed JSON values,
    with their paths and those of a two-record segment file and the tiny scenario."""
    root = tmp_path_factory.mktemp("valid")
    save_corpus(two_block_corpus(), root)
    assert main(["train", "--corpus", str(root), "--k", "2", "--seed", "5",
                 "--max-em-iters", "5", "--out", str(root / "run")]) in (0, 3)
    with open(root / "records.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    _write_json_lines(root / "segments.jsonl", records[:2])
    _write_json_lines(root / "scenario.json", [TINY_SCENARIO])
    return {
        "vocab": json.loads((root / "vocab.json").read_text()),
        "records": records,
        "model": json.loads((root / "run" / "model.json").read_text()),
        "corpus_path": str(root),
        "model_path": str(root / "run" / "model.json"),
        "segments_path": str(root / "segments.jsonl"),
        "scenario_path": str(root / "scenario.json"),
    }


class TestModelAndCorpusProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_model_ends_in_documented_exit_code(self, valid_inputs, data):
        payload = data.draw(mutated_models(valid_inputs["model"]))
        with tempfile.TemporaryDirectory() as tmp:
            model = os.path.join(tmp, "model.json")
            with open(model, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            records = os.path.join(tmp, "records.jsonl")
            _write_json_lines(records, valid_inputs["records"][:2])
            _assert_documented_run(tmp, ["phenotypes", "--model", model, "--label-type", "dx"])
            _assert_documented_run(tmp, ["summarize", "--model", model, "--record-file", records])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_corpus_ends_in_documented_exit_code(self, valid_inputs, data):
        vocab, records = data.draw(
            mutated_corpora(valid_inputs["vocab"], valid_inputs["records"])
        )
        with tempfile.TemporaryDirectory() as tmp:
            corpus = os.path.join(tmp, "corpus")
            os.mkdir(corpus)
            _write_json_lines(os.path.join(corpus, "vocab.json"), [vocab])
            _write_json_lines(os.path.join(corpus, "records.jsonl"), records)
            _assert_documented_run(tmp, ["train", "--corpus", corpus, "--k", "2", "--seed", "1",
                                         "--max-em-iters", "1"])
            _assert_documented_run(tmp, ["coverage", "--model", valid_inputs["model_path"],
                                         "--corpus", corpus])


def _valid_configs(inputs):
    """One valid --config object per subcommand, naming ``valid_inputs``' files."""
    return {
        "train": {"corpus": inputs["corpus_path"], "k": 2, "seed": 1, "max_em_iters": 1,
                  "em_tol": 1e-5},
        "phenotypes": {"model": inputs["model_path"], "label_type": "dx", "top_n": 3,
                       "corr_threshold": 0.5},
        "summarize": {"model": inputs["model_path"], "record_file": inputs["segments_path"],
                      "top_n": 2},
        "coverage": {"model": inputs["model_path"], "corpus": inputs["corpus_path"],
                     "mass": 0.9},
        "eval": {"scenario": inputs["scenario_path"], "seed": 1, "max_em_iters": 1,
                 "tv_threshold": 0.5, "corr_threshold": 0.5},
    }


@st.composite
def mutated_configs(draw, config):
    """``config`` with one field replaced or dropped, an unknown key added, or wrapped."""
    if draw(st.booleans()):
        return _field_mutation(draw, config)
    config = dict(config)
    config[draw(st.text(max_size=8).filter(lambda key: key not in config))] = draw(ANY_JSON)
    return config


def _assert_documented_config_run(tmp, command, config):
    path = os.path.join(tmp, "config.json")
    _write_json_lines(path, [config])
    _assert_documented_run(tmp, [command, "--config", path])


class TestConfigProperty:
    @pytest.mark.parametrize("command", ["train", "phenotypes", "summarize", "coverage", "eval"])
    def test_valid_config_runs(self, valid_inputs, tmp_path, command):
        _assert_documented_config_run(str(tmp_path), command, _valid_configs(valid_inputs)[command])
        assert (tmp_path / "out" / "manifest.json").exists()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_config_ends_in_documented_exit_code(self, valid_inputs, data):
        command, config = data.draw(st.sampled_from(sorted(_valid_configs(valid_inputs).items())))
        config = data.draw(mutated_configs(config))
        with tempfile.TemporaryDirectory() as tmp:
            _assert_documented_config_run(tmp, command, config)


@pytest.mark.parametrize(
    "command, flags, expected",
    [
        ("train", ["--corpus", "{corpus}", "--k", "2", "--seed", "5", "--max-em-iters", "1"], 3),
        ("train", ["--corpus", "{missing}", "--k", "2", "--seed", "5"], 2),
        ("phenotypes", ["--model", "{model}", "--label-type", "dx"], 0),
        ("phenotypes", ["--model", "{model}", "--label-type", "meds"], 1),
        ("summarize", ["--model", "{model}", "--record-file", "{records}"], 0),
        ("summarize", ["--model", "{missing}", "--record-file", "{records}"], 2),
        ("eval", ["--scenario", "{scenario}", "--seed", "1", "--max-em-iters", "1",
                  "--tv-threshold", "0"], 3),
        ("eval", ["--preset", "nope", "--seed", "1"], 1),
        ("coverage", ["--model", "{model}", "--corpus", "{corpus}"], 0),
        ("coverage", ["--model", "{model}", "--corpus", "{other}"], 4),
        ("phenotypes", ["--model", "{model}", "--label-type", "dx", "--corr-threshold", "1.5"], 1),
        ("phenotypes", ["--model", "{model}", "--label-type", "dx", "--top-n", "0"], 1),
        ("summarize", ["--model", "{model}", "--record-file", "{records}", "--top-n", "0"], 1),
    ],
)
def test_manifest_is_written_exactly_on_exit_0_and_3(
    trained, corpus_dir, tmp_path, capsys, command, flags, expected
):
    paths = {
        "corpus": corpus_dir,
        "model": trained / "model.json",
        "missing": tmp_path / "missing",
        "records": tmp_path / "records.jsonl",
        "scenario": tmp_path / "scenario.json",
        "other": tmp_path / "other",
    }
    paths["records"].write_text(json.dumps({"id": "p1", "bags": {"dx": {"w0": 2}}}) + "\n")
    paths["scenario"].write_text(json.dumps(TINY_SCENARIO))
    paths["other"].mkdir()
    (paths["other"] / "vocab.json").write_text(json.dumps({"dx": ["zzz"]}))
    (paths["other"] / "records.jsonl").write_text(json.dumps({"id": "r", "bags": {}}) + "\n")
    out = tmp_path / "out"
    argv = [command, *(flag.format(**paths) for flag in flags), "--out", str(out)]
    assert main(argv) == expected
    assert "Traceback" not in capsys.readouterr().err
    if expected in (0, 3):
        assert json.loads((out / "manifest.json").read_text())["command"] == command
    else:
        assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["train", "phenotypes", "summarize", "eval", "coverage"])
@pytest.mark.parametrize(
    "flag, env", [("0", None), ("-2", None), (None, "lots")], ids=["zero", "negative", "env-lots"]
)
def test_bad_thread_count_is_argument_error_for_every_command(
    trained, corpus_dir, tmp_path, capsys, monkeypatch, command, flag, env
):
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps({"id": "p1", "bags": {"dx": {"w0": 2}}}) + "\n")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(TINY_SCENARIO))
    model = str(trained / "model.json")
    argv = {
        "train": ["--corpus", str(corpus_dir), "--k", "2", "--seed", "5", "--max-em-iters", "1"],
        "phenotypes": ["--model", model, "--label-type", "dx"],
        "summarize": ["--model", model, "--record-file", str(records)],
        "eval": ["--scenario", str(scenario), "--seed", "1", "--max-em-iters", "1"],
        "coverage": ["--model", model, "--corpus", str(corpus_dir)],
    }[command]
    if env is None:
        monkeypatch.delenv("PHENOTOPICS_THREADS", raising=False)
        argv = [*argv, "--threads", flag]
    else:
        monkeypatch.setenv("PHENOTOPICS_THREADS", env)
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


class TestCoverage:
    def test_histogram_fractions_sum_to_one(self, trained, corpus_dir, tmp_path):
        out = tmp_path / "cov"
        code = main(
            ["coverage", "--model", str(trained / "model.json"),
             "--corpus", str(corpus_dir), "--out", str(out)]
        )
        assert code == 0
        with open(out / "coverage.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["bucket"] for r in rows] == ["1-5", "6-20", "21+"]
        assert sum(float(r["fraction"]) for r in rows) == pytest.approx(1.0, abs=1e-12)

    def test_manifest_counts_nonconverged_records(
        self, trained, corpus_dir, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(numerics, "NEWTON_MAX_ITERS", 1)
        models = []

        def attach(*args, **kwargs):
            models.append(learning.attach_posteriors(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(cli, "attach_posteriors", attach)
        out = tmp_path / "cov"
        code = main(
            ["coverage", "--model", str(trained / "model.json"),
             "--corpus", str(corpus_dir), "--out", str(out)]
        )
        assert code == 0
        expected = sum(not post.converged for post in models[0].doc_posteriors)
        assert expected > 0
        assert json.loads((out / "manifest.json").read_text())["nonconverged_records"] == expected

    def test_manifest_counts_a_record_that_crawls(self, tmp_path):
        # the crawling record stops at the iteration cap from its cold start;
        # the short one converges
        params, record = crawling_k50_record()
        vocab = (Vocabulary("dx", tuple(f"w{v}" for v in range(8))),)
        save_corpus(Corpus(vocab, (RecordBags("short", ({0: 3, 5: 1},)), record)),
                    tmp_path / "corpus")
        save_model(TrainedModel(params, vocab, [], [], TrainConfig(K=50), vocab_fingerprint(vocab)),
                   tmp_path / "model.json")
        out = tmp_path / "cov"
        code = main(["coverage", "--model", str(tmp_path / "model.json"),
                     "--corpus", str(tmp_path / "corpus"), "--out", str(out)])
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["nonconverged_records"] == 1

    def test_mass_zero_is_argument_error(self, trained, corpus_dir, tmp_path):
        code = main(
            ["coverage", "--model", str(trained / "model.json"),
             "--corpus", str(corpus_dir), "--mass", "0", "--out", str(tmp_path / "c")]
        )
        assert code == 1

    def test_incompatible_corpus_exits_4(self, trained, tmp_path):
        other = tmp_path / "other_corpus"
        other.mkdir()
        (other / "vocab.json").write_text(json.dumps({"dx": ["zzz"]}))
        (other / "records.jsonl").write_text(json.dumps({"id": "r", "bags": {}}) + "\n")
        code = main(
            ["coverage", "--model", str(trained / "model.json"),
             "--corpus", str(other), "--out", str(tmp_path / "c")]
        )
        assert code == 4


class TestMisc:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "phenotopics" in capsys.readouterr().out

    def test_summarize_top_n_defaults_to_five(self):
        from phenotopics.cli import build_parser

        parser, commands = build_parser()
        assert commands["summarize"].get_default("top_n") == 5
        assert commands["coverage"].get_default("mass") == 0.9
        assert commands["phenotypes"].get_default("corr_threshold") == 0.5

    def test_bad_env_thread_count_is_argument_error(self, corpus_dir, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("PHENOTOPICS_THREADS", "lots")
        code = main(
            ["train", "--corpus", str(corpus_dir), "--k", "2", "--seed", "0",
             "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_non_positive_thread_counts_are_argument_errors(self, corpus_dir, tmp_path,
                                                            monkeypatch):
        base = ["train", "--corpus", str(corpus_dir), "--k", "2", "--seed", "0",
                "--out", str(tmp_path / "o")]
        assert main(base + ["--threads", "0"]) == 1
        assert main(base + ["--threads", "-2"]) == 1
        monkeypatch.setenv("PHENOTOPICS_THREADS", "0")
        assert main(base) == 1
        assert not (tmp_path / "o").exists()

    def test_thread_count_defaults_to_one(self, monkeypatch):
        from phenotopics.cli import _default_threads

        monkeypatch.setattr("os.cpu_count", lambda: 8)
        monkeypatch.delenv("PHENOTOPICS_THREADS", raising=False)
        assert _default_threads(None) == 1
        monkeypatch.setenv("PHENOTOPICS_THREADS", "3")
        assert _default_threads(None) == 3
        assert _default_threads(2) == 2

    def test_env_thread_count_used(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("PHENOTOPICS_THREADS", "2")
        code = main(
            ["train", "--corpus", str(corpus_dir), "--k", "2", "--seed", "0",
             "--max-em-iters", "2", "--out", str(tmp_path / "o")]
        )
        assert code in (0, 3)
