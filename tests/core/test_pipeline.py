"""Tests for the four-phase pipeline."""

import numpy as np
import pytest

from repro.core import PipelineConfig, PSigenePipeline


class TestConfigValidation:
    @pytest.mark.parametrize(("field", "value"), [
        ("n_attack_samples", 0),
        ("n_attack_samples", -5),
        ("n_benign_train", 0),
        ("workers", 0),
        ("max_cluster_rows", 3),
        ("assignment_radius_quantile", 0.0),
        ("assignment_radius_quantile", 1.5),
        ("assignment_radius_quantile", float("nan")),
    ])
    def test_impossible_setting_is_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})

    def test_boundary_settings_are_accepted(self):
        config = PipelineConfig(
            n_attack_samples=1, n_benign_train=1, workers=1,
            max_cluster_rows=4, assignment_radius_quantile=1.0,
        )
        assert config.assignment_radius_quantile == 1.0


class TestPhase1:
    def test_crawler_collects_samples(self, small_pipeline, small_result):
        assert len(small_result.samples) >= 800

    def test_direct_generation_mode(self):
        config = PipelineConfig(
            seed=1, n_attack_samples=50, use_crawler=False
        )
        samples = PSigenePipeline(config).collect_samples()
        assert len(samples) == 50
        assert all(s.family for s in samples)

    def test_crawled_samples_attributed(self, small_result):
        assert all(s.portal for s in small_result.samples)


class TestPhase2:
    def test_pruning_from_477(self, small_result):
        assert small_result.pruning.initial_features == 477
        assert small_result.pruning.final_features < 300

    def test_matrix_aligned_with_samples(self, small_result):
        assert small_result.matrix.n_samples == len(small_result.samples)

    def test_benign_matrix_same_catalog(self, small_result):
        assert (
            small_result.benign_matrix.catalog.patterns
            == small_result.matrix.catalog.patterns
        )

    def test_matrix_is_sparse_like_paper(self, small_result):
        # Paper: ~85% zeros, ~6% ones.
        assert small_result.matrix.sparsity() > 0.6

    def test_some_binary_features(self, small_result):
        # Paper: 70 of 159 behaved as binary features.
        mask = small_result.matrix.binary_feature_mask()
        assert 0 < mask.sum() < small_result.matrix.n_features


class TestPhase3:
    def test_biclusters_selected(self, small_result):
        assert 3 <= len(small_result.biclusters) <= 11

    def test_five_percent_rule_on_clustered_subset(
        self, small_result, small_config
    ):
        clustered = min(
            small_config.max_cluster_rows, small_result.matrix.n_samples
        )
        for bicluster in small_result.biclustering.biclusters:
            assert bicluster.n_samples >= 0.05 * clustered * 0.9

    def test_extension_grows_biclusters(self, small_result):
        raw_total = sum(
            b.n_samples for b in small_result.biclustering.biclusters
        )
        extended_total = sum(b.n_samples for b in small_result.biclusters)
        assert extended_total >= raw_total

    def test_extended_indices_valid(self, small_result):
        n = small_result.matrix.n_samples
        for bicluster in small_result.biclusters:
            assert (bicluster.sample_indices >= 0).all()
            assert (bicluster.sample_indices < n).all()

    def test_biclusters_nonoverlapping(self, small_result):
        seen = set()
        for bicluster in small_result.biclustering.biclusters:
            members = set(bicluster.sample_indices.tolist())
            assert not members & seen
            seen |= members

    def test_cophenetic_reported(self, small_result):
        assert 0.5 < small_result.biclustering.cophenetic_correlation <= 1.0

    def test_black_hole_present(self, small_result):
        # The probe families must produce at least one black hole.
        assert any(b.is_black_hole for b in small_result.biclusters)


class TestPhase4:
    def test_one_signature_per_active_bicluster(self, small_result):
        active = [
            b for b in small_result.biclusters
            if not b.is_black_hole and b.n_samples >= 2
        ]
        assert len(small_result.signature_set) == len(active)

    def test_no_signature_for_black_holes(self, small_result):
        black_holes = {
            b.index for b in small_result.biclusters if b.is_black_hole
        }
        signature_indices = {
            s.bicluster_index for s in small_result.signature_set
        }
        assert not black_holes & signature_indices

    def test_signature_features_subset_of_bicluster(self, small_result):
        by_index = {b.index: b for b in small_result.biclusters}
        for training in small_result.trainings:
            signature = training.signature
            bicluster = by_index[signature.bicluster_index]
            bicluster_patterns = {
                small_result.catalog[int(i)].pattern
                for i in bicluster.feature_indices
            }
            for definition in signature.features:
                assert definition.pattern in bicluster_patterns

    def test_logistic_pruning_observed(self, small_result):
        # Table VI: signatures use at most as many features as their
        # bicluster, usually fewer.
        for row in small_result.table6():
            assert (
                row["features_signature"] <= row["features_biclustering"]
            )

    def test_table6_rows_complete(self, small_result):
        rows = small_result.table6()
        assert len(rows) == len(small_result.signature_set)
        for row in rows:
            assert row["samples"] > 0
            assert row["features_signature"] > 0


class TestDeterminism:
    def test_same_config_same_signatures(self):
        config = PipelineConfig(
            seed=77, n_attack_samples=300, n_benign_train=800,
            max_cluster_rows=250,
        )
        first = PSigenePipeline(config).run()
        second = PSigenePipeline(config).run()
        assert len(first.signature_set) == len(second.signature_set)
        for a, b in zip(first.signature_set, second.signature_set):
            assert np.allclose(a.model.theta, b.model.theta)
