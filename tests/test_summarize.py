"""Record summarization: salience trajectories, coverage, sankey export."""

import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenotopics import learning
from phenotopics.corpus import RecordBags, Vocabulary
from phenotopics.summarize import (
    SANKEY_SCHEMA,
    SummaryTrajectory,
    bucket_label,
    coverage_count,
    coverage_histogram,
    export_sankey,
    summarize_record,
)

from .oracles import scan_coverage_count
from .test_phenotype import model_from, posterior_with_proportions


@pytest.fixture
def block_model():
    # three phenotypes, each concentrated on its own pair of tokens
    vocab = Vocabulary("dx", tuple(f"t{i}" for i in range(6)))
    beta = np.full((3, 6), 0.025)
    for k in range(3):
        beta[k, 2 * k : 2 * k + 2] = 0.45
    return model_from(np.zeros(3), 4.0 * np.eye(3), [beta], (vocab,))


def segment(record_id, bag, time_bin):
    return RecordBags(record_id, (bag,), time_bin=time_bin)


class TestSummarizeRecord:
    def test_single_bin_selection_and_residual(self, block_model):
        traj = summarize_record(
            [segment("p", {0: 8, 2: 3, 4: 1}, "2019")], block_model, top_n=2
        )
        assert traj.selected == [0, 1]
        assert traj.bins == ["2019"]
        total = traj.salience[0].sum() + traj.residual[0]
        assert total == pytest.approx(1.0, abs=1e-9)
        assert traj.salience[0, 0] > traj.salience[0, 1]

    def test_identical_bins_identical_salience(self, block_model):
        segments = [
            segment("p", {0: 5, 3: 2}, "a"),
            segment("p", {0: 5, 3: 2}, "b"),
        ]
        traj = summarize_record(segments, block_model, top_n=3)
        np.testing.assert_array_equal(traj.salience[0], traj.salience[1])

    def test_selection_anchored_at_final_bin(self, block_model):
        segments = [
            segment("p", {0: 10}, "early"),  # phenotype 0 dominant early
            segment("p", {4: 10}, "late"),  # phenotype 2 dominant late
        ]
        traj = summarize_record(segments, block_model, top_n=1)
        assert traj.selected == [2]

    def test_top_n_equal_k_residual_zero(self, block_model):
        traj = summarize_record(
            [segment("p", {0: 3, 2: 3, 4: 3}, "x")], block_model, top_n=3
        )
        np.testing.assert_allclose(traj.residual, 0.0, atol=1e-9)

    def test_every_phenotype_selected_leaves_no_negative_residual(self):
        # with all K=50 selected, two of these six bins' saliences sum to a
        # rounding above 1
        rng = np.random.default_rng(0)
        k = 50
        vocab = Vocabulary("dx", tuple(f"t{i}" for i in range(20)))
        beta = rng.dirichlet(np.full(20, 0.5), size=k)
        model = model_from(rng.normal(size=k), np.eye(k), [beta], (vocab,))
        segments = [
            segment("p", {int(v): 2 for v in rng.integers(0, 20, size=4)}, f"b{b}")
            for b in range(6)
        ]
        traj = summarize_record(segments, model, top_n=k)
        assert (1.0 - traj.salience.sum(axis=1) < 0).any()  # the rounding the floor is for
        assert (traj.residual >= 0).all()
        np.testing.assert_allclose(traj.residual, 0.0, atol=1e-12)

    def test_selected_kept_in_all_bins_even_near_zero(self, block_model):
        segments = [
            segment("p", {4: 12}, "early"),
            segment("p", {0: 12}, "late"),
        ]
        traj = summarize_record(segments, block_model, top_n=1)
        assert traj.selected == [0]
        assert traj.salience[0, 0] < 0.2  # tiny but reported
        assert traj.salience[1, 0] > 0.6

    def test_model_params_not_mutated(self, block_model):
        before = [lb.copy() for lb in block_model.params.log_beta]
        mu_before = block_model.params.mu0.copy()
        summarize_record([segment("p", {0: 4}, "x")], block_model, top_n=2)
        np.testing.assert_array_equal(block_model.params.mu0, mu_before)
        for lb, prev in zip(block_model.params.log_beta, before):
            np.testing.assert_array_equal(lb, prev)

    def test_empty_segment_list_rejected(self, block_model):
        with pytest.raises(ValueError, match="empty"):
            summarize_record([], block_model)

    def test_mixed_record_ids_rejected(self, block_model):
        segments = [segment("p", {}, "a"), segment("q", {}, "b")]
        with pytest.raises(ValueError, match="record_id"):
            summarize_record(segments, block_model)

    def test_tie_break_by_phenotype_index(self):
        vocab = Vocabulary("dx", ("a", "b"))
        model = model_from(np.zeros(2), np.eye(2), [np.full((2, 2), 0.5)], (vocab,))
        traj = summarize_record([segment("p", {0: 4}, "x")], model, top_n=1)
        assert traj.selected == [0]

    def test_missing_time_bin_falls_back_to_position(self, block_model):
        traj = summarize_record(
            [RecordBags("p", ({0: 1},)), RecordBags("p", ({2: 1},), time_bin="later")],
            block_model,
            top_n=1,
        )
        assert traj.bins == ["0", "later"]

    def test_segments_past_the_block_cap_match_one_block(self, block_model, monkeypatch):
        segments = [
            segment("p", {0: 6, 3: 1}, "a"),
            segment("p", {2: 4, 5: 2, 1: 1}, "b"),
            segment("p", {}, "c"),
            segment("p", {4: 9}, "d"),
        ]
        whole = summarize_record(segments, block_model, top_n=2)
        monkeypatch.setattr(learning, "BLOCK_TOKENS", 2)
        assert len(learning._blocks(segments)) == 3
        cut = summarize_record(segments, block_model, top_n=2)
        assert cut.selected == whole.selected
        np.testing.assert_allclose(cut.salience, whole.salience, rtol=0, atol=1e-9)
        assert cut.nonconverged_segments == whole.nonconverged_segments == 0


class TestCoverageCount:
    def test_documented_examples(self):
        assert coverage_count([0.6, 0.35, 0.05], 0.9) == 2
        assert coverage_count([1.0, 0.0, 0.0, 0.0], 0.5) == 1
        assert coverage_count([1.0], 1.0) == 1

    def test_uniform_needs_ceil(self):
        for k in (3, 7, 10, 21):
            assert coverage_count(np.full(k, 1.0 / k), 0.9) == math.ceil(0.9 * k)

    def test_matches_scan_oracle_on_random_simplices(self, rng):
        for _ in range(300):
            k = int(rng.integers(1, 40))
            p = rng.dirichlet(np.full(k, rng.uniform(0.05, 5.0)))
            mass = float(rng.uniform(0.05, 1.0))
            assert coverage_count(p, mass) == scan_coverage_count(p, mass)

    def test_validation(self):
        with pytest.raises(ValueError, match="mass"):
            coverage_count([1.0], 0.0)
        with pytest.raises(ValueError, match="sum to 1"):
            coverage_count([0.4, 0.4], 0.9)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12), st.data())
    def test_permutation_invariant_and_monotone_in_mass(self, weights, data):
        p = np.array(weights) / np.sum(weights)
        perm = data.draw(st.permutations(range(len(p))))
        mass_lo = data.draw(st.floats(0.05, 0.95))
        mass_hi = data.draw(st.floats(mass_lo, 1.0))
        assert coverage_count(p, mass_lo) == coverage_count(p[list(perm)], mass_lo)
        assert coverage_count(p, mass_lo) <= coverage_count(p, mass_hi)


class TestCoverageHistogram:
    def model_with(self, proportions_list):
        k = len(proportions_list[0])
        vocab = (Vocabulary("dx", tuple(f"t{i}" for i in range(k))),)
        posts = [posterior_with_proportions(p) for p in proportions_list]
        return model_from(np.zeros(k), np.eye(k), [np.full((k, k), 1.0 / k)], vocab, posts)

    def test_dominant_records_land_in_first_bucket(self):
        model = self.model_with([[0.95, 0.03, 0.02]] * 4)
        fractions = coverage_histogram(model, mass=0.9)
        assert fractions[(1, 5)] == 1.0

    def test_fractions_partition_records(self, rng):
        props = [rng.dirichlet(np.full(30, 0.1)) for _ in range(40)]
        model = self.model_with(props)
        fractions = coverage_histogram(model, mass=0.9)
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-12)

    def test_sparse_proportions_mostly_few_phenotypes(self, rng):
        # low-concentration draws put most mass on a handful of phenotypes
        props = [rng.dirichlet(np.full(50, 0.05)) for _ in range(60)]
        model = self.model_with(props)
        fractions = coverage_histogram(model, mass=0.9)
        assert fractions[(1, 5)] > 0.5

    def test_bucket_labels(self):
        assert bucket_label((1, 5)) == "1-5"
        assert bucket_label((21, None)) == "21+"


class TestExportSankey:
    def trajectory(self):
        return SummaryTrajectory(
            record_id="p1",
            bins=["2018", "2019"],
            selected=[3, 1],
            salience=np.array([[0.5, 0.3], [0.0, 0.6]]),
            residual=np.array([0.2, 0.4]),
            nonconverged_segments=0,
        )

    def test_structure_counts(self, tmp_path):
        path = tmp_path / "sankey.json"
        export_sankey(self.trajectory(), path)
        payload = json.loads(path.read_text())
        assert len(payload["nodes"]) == 4  # 2 bins x 2 phenotypes
        assert len(payload["links"]) == 2  # 1 transition x 2 phenotypes

    def test_zero_salience_node_emitted(self, tmp_path):
        path = tmp_path / "sankey.json"
        export_sankey(self.trajectory(), path)
        payload = json.loads(path.read_text())
        zero_nodes = [n for n in payload["nodes"] if n["value"] == 0.0]
        assert any(n["phenotype"] == 3 and n["bin"] == "2019" for n in zero_nodes)

    def test_validates_against_schema(self, tmp_path):
        path = tmp_path / "sankey.json"
        export_sankey(self.trajectory(), path)
        payload = json.loads(path.read_text())
        jsonschema.validate(payload, SANKEY_SCHEMA)

    def test_links_carry_source_bin_salience(self, tmp_path):
        path = tmp_path / "sankey.json"
        export_sankey(self.trajectory(), path)
        payload = json.loads(path.read_text())
        link = next(l for l in payload["links"] if l["phenotype"] == 3)
        assert link["from_bin"] == "2018" and link["to_bin"] == "2019"
        assert link["value"] == pytest.approx(0.5)
