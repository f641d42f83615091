"""End-to-end CLI runs: exit codes, artifacts, manifests, reproducibility."""

import csv
import json

import jsonschema
import numpy as np
import pytest

from phenotopics.cli import main
from phenotopics.corpus import save_corpus
from phenotopics.summarize import SANKEY_SCHEMA
from phenotopics.synth import Scenario, save_scenario

from .conftest import two_block_corpus

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
            {"k": 2, "seed": 5, "max_em_iters": 3, "em_tol": 0, "freeze_prior": False}
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
            ("train", '{"freeze_prior": 1}', 1),
            ("train", '{"max_em_iters": ' + "9" * 5000 + "}", 2),
            ("train", b"\xff\xfe{}", 2),
        ],
        ids=["null-int", "float-for-int", "int-for-switch", "huge-int", "not-utf8"],
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

    @pytest.mark.parametrize("flag", ["--doc-tol", "--beta-smoothing", "--noise-scale"])
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

    @pytest.mark.parametrize(
        "corrupt, expected",
        [
            (lambda p: p.update(sigma0=[1.0, 2.0, 2.0, 1.0]), 2),  # not positive definite
            (lambda p: p["log_beta"]["dx"].__setitem__(0, 0.0), 2),  # row sums past 1
            (lambda p: p.update(mu0=p["mu0"][:1]), 2),
            (lambda p: p.update(K="<huge>"), 2),  # a 5,000-digit integer literal
            (lambda p: p.update(K=float("inf")), 2),
            (lambda p: p.update(vocabularies=[]), 2),
            (lambda p: p.update(history=5), 2),
            (lambda p: p.update(vocab_fingerprint=5), 4),
        ],
        ids=["sigma0-not-pd", "row-sum", "mu0-short", "huge-K", "infinite-K",
             "vocabularies-list", "history-int", "fingerprint-int"],
    )
    def test_model_that_is_not_a_model_exits_without_traceback(
        self, trained, tmp_path, capsys, corrupt, expected
    ):
        payload = json.loads((trained / "model.json").read_text())
        corrupt(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload).replace('"<huge>"', "9" * 5000))
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
        assert set(payload["config"]).isdisjoint({"beta_smoothing", "noise_scale", "doc_tol"})
        payload["config"].update(
            beta_smoothing=1e-8, noise_scale=1.0, doc_tol=1e-4, doc_max_outer=100
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
