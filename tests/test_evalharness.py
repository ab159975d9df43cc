import json
import re

import numpy as np
import pytest

from datforge.errors import ConfigError
from datforge.evalharness import (
    MetricsReport,
    ProbeConfig,
    ReportRow,
    build_report,
    config_hash,
    domain_probe,
    evaluate,
    write_report_csv,
    write_report_json,
)
from datforge.models import DannModel, ModelConfig
from datforge.trainer import StageResult, TrainConfig, run_stage

SMALL_MODEL = ModelConfig(input_dim=64, hidden_dim=16, feature_dim=8, n_classes=4, n_domains=3)


@pytest.fixture(scope="module")
def trained(small_splits):
    cfg = TrainConfig(epochs=2, batch_size=4, seed=0)
    return run_stage("baseline", small_splits, cfg, model_cfg=SMALL_MODEL)


class TestEvaluate:
    def test_accuracy_in_unit_interval(self, trained, small_splits):
        acc = evaluate(trained.model, small_splits.test_clean)
        assert 0.0 <= acc <= 1.0

    def test_empty_test_set_rejected(self, trained):
        with pytest.raises(ValueError, match="empty"):
            evaluate(trained.model, [])

    def test_deterministic(self, trained, small_splits):
        a = evaluate(trained.model, small_splits.test_seen)
        b = evaluate(trained.model, small_splits.test_seen)
        assert a == b


class _ConstantExtractor:
    """Stand-in extractor: identical features for every input."""

    def __init__(self, dim):
        self.dim = dim

    def hidden(self, tape, x):
        return tape.const(np.ones((x.value.shape[0], self.dim)))

    def project(self, tape, h):
        return h


class _DomainLeakExtractor:
    """Stand-in extractor that emits the clip's domain as a one-hot feature.

    Keyed by the clip's features, recorded at construction time.
    """

    def __init__(self, splits, dim):
        self.dim = dim
        from datforge.distort import featurize

        self.feature_lookup = {
            featurize(w_c.waveform).tobytes(): dom
            for clips, dom_of in ((splits.S, lambda c: 0), (splits.T, lambda c: c.domain))
            for w_c, dom in ((c, dom_of(c)) for c in clips)
        }

    def hidden(self, tape, x):
        dom = self.feature_lookup[x.value.tobytes()]
        out = np.zeros((x.value.shape[0], self.dim))
        out[:, dom] = 50.0
        return tape.const(out)

    def project(self, tape, h):
        return h


class TestDomainProbe:
    def test_constant_features_carry_no_signal_beyond_priors(self, trained, small_splits):
        # identical features for every clip: the probe can do no better than
        # predicting the most frequent domain (clean, half of S∪T)
        model = DannModel(SMALL_MODEL, seed=0)
        model.extractor = _ConstantExtractor(SMALL_MODEL.feature_dim)
        res = domain_probe(model, small_splits)
        majority_prior = 0.5  # S is all-clean and |S| == |T|
        assert res.probe_acc <= majority_prior + 0.15  # slack for the tiny holdout
        assert res.chance_level == pytest.approx(1.0 / 4.0)

    def test_domain_leak_features_give_near_perfect(self, small_splits):
        model = DannModel(SMALL_MODEL, seed=0)
        model.extractor = _DomainLeakExtractor(small_splits, SMALL_MODEL.feature_dim)
        res = domain_probe(model, small_splits, ProbeConfig(epochs=300))
        assert res.probe_acc >= 0.9

    def test_probe_never_touches_extractor(self, trained, small_splits):
        before = [p.value.copy() for p in trained.model.parameters()]
        domain_probe(trained.model, small_splits)
        after = [p.value for p in trained.model.parameters()]
        assert all(np.array_equal(b, a) for b, a in zip(before, after))

    def test_probe_deterministic(self, trained, small_splits):
        a = domain_probe(trained.model, small_splits)
        b = domain_probe(trained.model, small_splits)
        assert a.probe_acc == b.probe_acc
        assert a.losses == b.losses

    def test_loss_history_has_epoch_length(self, trained, small_splits):
        res = domain_probe(trained.model, small_splits, ProbeConfig(epochs=30))
        assert len(res.losses) == 30

    @pytest.mark.parametrize("kw, message", [
        ({"epochs": 0}, "probe epochs must be an integer >= 1, got 0"),
        ({"epochs": -3}, "probe epochs must be an integer >= 1, got -3"),
        ({"epochs": 2.5}, "probe epochs must be an integer >= 1, got 2.5"),
        ({"seed": -1}, "probe seed must be an integer >= 0, got -1"),
        ({"seed": True}, "probe seed must be an integer >= 0, got True"),
    ])
    def test_bad_probe_config_rejected(self, kw, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ProbeConfig(**kw)


class TestReport:
    def test_rows_cover_all_stages(self, trained, small_splits):
        report = build_report([trained], small_splits)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.stage == "baseline"
        assert row.objective is None and row.grl_lambda is None

    def test_no_results_rejected(self, small_splits):
        with pytest.raises(ConfigError):
            build_report([], small_splits)

    def test_metadata_has_timestamp(self, trained, small_splits):
        report = build_report([trained], small_splits)
        assert "created_at" in report.metadata

    def test_csv_layout_and_determinism(self, trained, small_splits, tmp_path):
        report = build_report([trained], small_splits, metadata={"run": "x"})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(a, report)
        write_report_csv(b, report)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "stage,objective,lambda,clean_acc,seen_acc,unseen_acc"
        fields = lines[1].split(",")
        assert fields[0] == "baseline" and fields[1] == "" and fields[2] == ""
        assert all(len(v.split(".")[1]) == 6 for v in fields[3:])

    def test_csv_has_no_timestamp(self, trained, small_splits, tmp_path):
        # report.csv must be byte-identical across runs, so volatile metadata
        # stays out of it
        report = build_report([trained], small_splits)
        path = tmp_path / "report.csv"
        write_report_csv(path, report)
        assert report.metadata["created_at"] not in path.read_text()

    def test_json_round_trip(self, trained, small_splits, tmp_path):
        report = build_report([trained], small_splits, metadata={"run": "x"})
        path = tmp_path / "report.json"
        write_report_json(path, report)
        payload = json.loads(path.read_text())
        assert payload["metadata"]["run"] == "x"
        assert payload["rows"][0]["stage"] == "baseline"

    def test_dat_row_formats_lambda(self, small_splits, tmp_path):
        model = DannModel(SMALL_MODEL, seed=0)
        result = StageResult("dat_only", "ce", 1e-2, model)
        report = build_report([result], small_splits)
        path = tmp_path / "r.csv"
        write_report_csv(path, report)
        assert path.read_text().splitlines()[1].startswith("dat_only,ce,0.01,")


class TestConfigHash:
    def test_stable_and_order_insensitive(self):
        a = config_hash({"x": 1, "y": [2, 3]})
        b = config_hash({"y": [2, 3], "x": 1})
        assert a == b and len(a) == 16

    def test_distinct_payloads_differ(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})
