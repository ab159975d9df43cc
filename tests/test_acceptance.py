"""The eight acceptance criteria, one test each, in criterion order.

Each test ends with a single ``ACCEPTANCE n ...: PASS`` line on stdout
(pytest shows it with ``-s`` or on failure); a failing test means FAIL.
The standard synthetic experiment (criteria 5 and 6) is trained once per
session (conftest's ``standard_results``) and shared between both tests and
the golden-output test.
"""

import json
import time

import numpy as np

from conftest import SEEDS, finite_diff, max_rel_err
from datforge.distort import (
    TRAIN_PROPORTIONS,
    Waveform,
    add_gaussian,
    apply_reverb,
    largest_remainder_counts,
    mix_at_snr,
    synth_corpus,
)
from datforge.gradcore import Parameter, Tape
from datforge.models import DannModel, ModelConfig
from datforge.objectives import (
    bce_domain_loss,
    ce_domain_loss,
    entropy_domain_loss,
    task_loss,
)
from datforge.pipeline import ExperimentManifest, run_experiment, run_sweep
from datforge.trainer import (
    REPORTED_LAMBDAS,
    TrainConfig,
    build_domain_loss,
    dat_step,
    domain_indices,
    features_of,
)


def _passed(n, label):
    print(f"\nACCEPTANCE {n} ({label}): PASS")


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity
# ---------------------------------------------------------------------------

def _apply_op(tape, op_name, x):
    if op_name == "mean_pool_segments":  # one segment of all rows: their mean
        return tape.mean_pool_segments(x, [x.value.shape[0]])
    return getattr(tape, op_name)(x)


def _gradcheck_op(op_name, rng):
    x = rng.uniform(-2.0, 2.0, size=(rng.integers(1, 4), rng.integers(2, 5)))

    def loss_of(xv):
        tape = Tape()
        out = _apply_op(tape, op_name, tape.const(xv))
        return float(tape.sum(tape.mul(out, out)).value)

    p = Parameter(x.copy(), "aux", "x")
    tape = Tape()
    out = _apply_op(tape, op_name, tape.param(p))
    tape.backward(tape.sum(tape.mul(out, out)))
    return max_rel_err(p.grad, finite_diff(loss_of, x))


def _gradcheck_linear(rng):
    x = rng.uniform(-1.0, 1.0, size=(3, 4))
    w0 = rng.uniform(-1.0, 1.0, size=(4, 2))
    b0 = rng.uniform(-1.0, 1.0, size=2)

    def loss_of(wv):
        tape = Tape()
        out = tape.linear(tape.const(x), tape.param(Parameter(wv, "aux", "w")),
                          tape.param(Parameter(b0.copy(), "aux", "b")))
        return float(tape.sum(tape.mul(out, out)).value)

    w = Parameter(w0.copy(), "aux", "w")
    tape = Tape()
    out = tape.linear(tape.const(x), tape.param(w), tape.param(Parameter(b0.copy(), "aux", "b")))
    tape.backward(tape.sum(tape.mul(out, out)))
    return max_rel_err(w.grad, finite_diff(loss_of, w0))


def _gradcheck_loss(loss_name, rng):
    b, k = int(rng.integers(2, 5)), 4
    if loss_name == "bce":
        p0 = rng.uniform(0.1, 0.9, size=b)
        d = rng.integers(0, 2, size=b)

        def loss_of(pv):
            tape = Tape()
            return float(bce_domain_loss(tape, tape.const(pv), d).value)

        param = Parameter(p0.copy(), "aux", "p")
        tape = Tape()
        tape.backward(bce_domain_loss(tape, tape.param(param), d))
        return max_rel_err(param.grad, finite_diff(loss_of, p0))
    if loss_name in ("ce", "entropy"):
        raw = rng.uniform(0.1, 1.0, size=(b, k))
        p0 = raw / raw.sum(axis=1, keepdims=True)
        onehot = np.eye(k)[rng.integers(0, k, size=b)]

        def loss_of(pv):
            tape = Tape()
            if loss_name == "ce":
                return float(ce_domain_loss(tape, tape.const(pv), onehot).value)
            return float(entropy_domain_loss(tape, tape.const(pv)).value)

        param = Parameter(p0.copy(), "aux", "p")
        tape = Tape()
        loss = (ce_domain_loss(tape, tape.param(param), onehot) if loss_name == "ce"
                else entropy_domain_loss(tape, tape.param(param)))
        tape.backward(loss)
        return max_rel_err(param.grad, finite_diff(loss_of, p0))
    logits0 = rng.uniform(-2.0, 2.0, size=(b, k))
    labels = rng.integers(0, k, size=b)

    def loss_of(zv):
        tape = Tape()
        return float(task_loss(tape, tape.const(zv), labels).value)

    param = Parameter(logits0.copy(), "aux", "z")
    tape = Tape()
    tape.backward(task_loss(tape, tape.param(param), labels))
    return max_rel_err(param.grad, finite_diff(loss_of, logits0))


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    ops = ("relu", "sigmoid", "softmax_rows", "log_softmax_rows", "mean_pool_segments")
    losses = ("bce", "ce", "entropy", "task")
    for i, op in enumerate(ops):
        rng = np.random.default_rng(1000 + i)
        errs = [_gradcheck_op(op, rng) for _ in range(20)]
        assert max(errs) < 1e-4, (op, max(errs))
    rng = np.random.default_rng(1100)
    errs = [_gradcheck_linear(rng) for _ in range(20)]
    assert max(errs) < 1e-4, ("linear", max(errs))
    for i, loss in enumerate(losses):
        rng = np.random.default_rng(1200 + i)
        errs = [_gradcheck_loss(loss, rng) for _ in range(20)]
        assert max(errs) < 1e-4, (loss, max(errs))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"gradchecks took {elapsed:.1f}s"
    _passed(1, "gradient fidelity")


# ---------------------------------------------------------------------------
# criterion 2: Eq. (1)-(2) literal SGD check
# ---------------------------------------------------------------------------

def test_criterion_2_update_equations(small_splits):
    mcfg = ModelConfig(input_dim=64, hidden_dim=16, feature_dim=8, n_classes=4, n_domains=3)
    s_feats = features_of(small_splits.S[:6])
    s_labels = np.array([c.label for c in small_splits.S[:6]])
    t_feats = features_of(small_splits.T[:6])
    t_domains = domain_indices(small_splits.T[:6], "multi")
    eta, alpha, beta = 1e-3, 2e-3, 3e-3
    for lam in (1e-2, 1e-3):
        cfg = TrainConfig(eta=eta, alpha=alpha, beta=beta, grl_lambda=lam)

        ref = DannModel(mcfg, seed=11)
        tape = Tape()
        pooled = ref.forward_pooled_features(tape, s_feats)
        tape.backward(task_loss(tape, ref.label_head.forward_pooled(tape, pooled), s_labels))
        gy = {p.name: p.grad.copy() for p in ref.parameters()}

        ref = DannModel(mcfg, seed=11)
        tape = Tape()
        pooled_c = ref.forward_pooled_features(tape, s_feats)
        pooled_n = ref.forward_pooled_features(tape, t_feats)
        pooled_all = tape.concat_rows([pooled_c, pooled_n])
        domains = np.concatenate([np.zeros(6, dtype=np.int64), t_domains])
        tape.backward(build_domain_loss(tape, ref, pooled_all, domains, cfg, adversarial=False))
        gd = {p.name: p.grad.copy() for p in ref.parameters()}

        model = DannModel(mcfg, seed=11)
        before = {p.name: p.value.copy() for p in model.parameters()}
        from datforge.gradcore import Optimizer

        opt = Optimizer(model.parameters(), cfg.lr_by_group(), sgd=True)
        dat_step(model, s_feats, s_labels, t_feats, t_domains, cfg, opt)
        for p in model.parameters():
            delta = p.value - before[p.name]
            expected = {
                "label_predictor": -alpha * gy[p.name],
                "domain_classifier": -beta * gd[p.name],
                "feature_extractor": -eta * (gy[p.name] - lam * gd[p.name]),
            }[p.group]
            assert np.max(np.abs(delta - expected)) < 1e-10, (p.name, lam)
    _passed(2, "update equations, SGD mode")


# ---------------------------------------------------------------------------
# criterion 3: loss identities
# ---------------------------------------------------------------------------

def test_criterion_3_loss_identities():
    tol = 1e-9
    tape = Tape()
    bce = bce_domain_loss(tape, tape.const(np.array([0.5])), np.array([1]))
    assert abs(float(bce.value) - np.log(2.0)) < tol

    tape = Tape()
    ce = ce_domain_loss(tape, tape.const(np.full((1, 4), 0.25)), np.eye(4)[[1]])
    assert abs(float(ce.value) - np.log(4.0)) < tol

    tape = Tape()
    ent_u = entropy_domain_loss(tape, tape.const(np.full((1, 4), 0.25)))
    assert abs(float(ent_u.value) - np.log(4.0)) < tol

    tape = Tape()
    ent_h = entropy_domain_loss(tape, tape.const(np.eye(4)[[2]]))
    assert abs(float(ent_h.value)) < tol

    # binary sigmoid BCE == 2-class softmax CE on logits [z, 0]
    rng = np.random.default_rng(12)
    z = rng.uniform(-3.0, 3.0, size=5)
    d = rng.integers(0, 2, size=5)
    tape = Tape()
    p = tape.sigmoid(tape.const(z))
    bce = float(bce_domain_loss(tape, p, d).value)
    tape = Tape()
    probs = tape.softmax_rows(tape.const(np.stack([z, np.zeros(5)], axis=1)))
    onehot = np.stack([d, 1 - d], axis=1).astype(float)  # column 0 is the sigmoid class
    ce = float(ce_domain_loss(tape, probs, onehot).value)
    assert abs(bce - ce) < tol
    _passed(3, "loss identities")


# ---------------------------------------------------------------------------
# criterion 4: distortion calibration
# ---------------------------------------------------------------------------

def _measured_snr_db(mixed, clean):
    residual = mixed.samples / mixed.gain_applied - clean.samples
    return 10.0 * np.log10(clean.power() / float(np.mean(residual**2)))


def test_criterion_4_distortion_calibration():
    clip = synth_corpus(1, 2, seed=40)[0]
    # deterministic noise: a fixed waveform, tolerance 0.01 dB
    t = np.arange(clip.waveform.samples.size) / 16000
    tone = np.sin(2 * np.pi * 773.0 * t)
    for target in (10.0, 15.0, 20.0):
        mixed = mix_at_snr(clip.waveform, tone, target)
        assert abs(_measured_snr_db(mixed, clip.waveform) - target) < 0.01
    # gaussian, 1 s clips, tolerance 0.1 dB
    for target in (10.0, 15.0, 20.0):
        mixed = add_gaussian(clip.waveform, target, seed=7)
        assert abs(_measured_snr_db(mixed, clip.waveform) - target) < 0.1
    # split proportions exact under largest remainder
    assert largest_remainder_counts(200, TRAIN_PROPORTIONS) == [60, 80, 60]
    assert largest_remainder_counts(50, (0.25, 0.25, 0.25, 0.25)) == [13, 13, 12, 12]
    # reverb identity kernel is exact
    out = apply_reverb(clip.waveform, np.array([1.0]))
    assert np.array_equal(out.samples, clip.waveform.samples)
    _passed(4, "distortion calibration")


# ---------------------------------------------------------------------------
# criteria 5 + 6: the standard synthetic experiment (conftest's standard_results,
# trained once per session)
# ---------------------------------------------------------------------------

def _majority(flags):
    return sum(bool(f) for f in flags) * 2 > len(flags)


def test_criterion_5_trend_reproduction(standard_results):
    per_seed, elapsed = standard_results
    checks = {"premise": [], "dat": [], "continual": [], "combined": [], "oracle": []}
    for seed in SEEDS:
        rows = per_seed[seed]["rows"]
        base, dat = rows["baseline"], rows["dat_only"]
        cont, both, oracle = rows["continual_only"], rows["continual_plus_dat"], rows["oracle"]
        checks["premise"].append(base.clean_acc >= 0.90
                                 and base.seen_acc <= base.clean_acc - 0.10 + 1e-9)
        checks["dat"].append(dat.seen_acc >= base.seen_acc + 0.05 - 1e-9
                             and dat.unseen_acc >= base.unseen_acc + 0.03 - 1e-9
                             and abs(dat.clean_acc - base.clean_acc) <= 0.03 + 1e-9)
        checks["continual"].append(cont.seen_acc > base.seen_acc)
        checks["combined"].append(
            both.seen_acc >= max(cont.seen_acc, dat.seen_acc) - 0.01 - 1e-9)
        checks["oracle"].append(oracle.seen_acc >= base.seen_acc)
    for name, flags in checks.items():
        assert _majority(flags), (name, flags)
    assert elapsed < 300.0, f"standard experiment took {elapsed:.0f}s"
    _passed(5, "trend reproduction")


def test_criterion_6_domain_invariance(standard_results):
    per_seed, _ = standard_results
    diffs = [per_seed[s]["probes"]["baseline"] - per_seed[s]["probes"]["dat_only"]
             for s in SEEDS]
    assert _majority([d >= 0.10 - 1e-9 for d in diffs]), diffs
    _passed(6, "domain invariance probe")


# ---------------------------------------------------------------------------
# criterion 7: determinism
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    manifest = ExperimentManifest.from_dict({
        "seed": 1,
        "corpus": {"classes": 4, "n_per_class": 6, "test_n_per_class": 2,
                   "continual_n_per_class": 4},
        "stages": [{"stage": "baseline", "epochs": 2, "batch_size": 4},
                   {"stage": "continual_plus_dat", "epochs": 2,
                    "continual_epochs": 2, "batch_size": 4}],
    })
    run_experiment(manifest, tmp_path / "first")
    run_experiment(manifest, tmp_path / "second")
    a = (tmp_path / "first" / "report.csv").read_bytes()
    b = (tmp_path / "second" / "report.csv").read_bytes()
    assert a == b
    _passed(7, "byte-identical reports")


# ---------------------------------------------------------------------------
# criterion 8: lambda sweep protocol
# ---------------------------------------------------------------------------

def test_criterion_8_sweep_protocol(tmp_path):
    manifest = ExperimentManifest.from_dict({
        "seed": 1,
        "corpus": {"classes": 4, "n_per_class": 6, "test_n_per_class": 2,
                   "continual_n_per_class": 4},
        "stages": [{"stage": "dat_only", "epochs": 1, "batch_size": 4}],
        "sweep": {"lambdas": [1e-1, 1e-2, 1e-3, 1e-4], "stage": "dat_only"},
    })
    rows = run_sweep(manifest, tmp_path, jobs=1)
    assert [r["lambda"] for r in rows] == [1e-1, 1e-2, 1e-3, 1e-4]
    reported = [r["lambda"] for r in rows if r["reported"]]
    assert sorted(reported, reverse=True) == sorted(REPORTED_LAMBDAS, reverse=True)
    assert set(REPORTED_LAMBDAS) == {1e-2, 1e-3}
    csv_lines = (tmp_path / "sweep_report.csv").read_text().splitlines()
    assert csv_lines[0] == "lambda,reported,clean_acc,seen_acc,unseen_acc"
    assert len(csv_lines) == 5
    _passed(8, "lambda sweep protocol")
