import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_diff, max_rel_err
from datforge.errors import ConfigError, DimensionError
from datforge.gradcore import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Optimizer, Parameter, Tape


def make_param(value, group="feature_extractor", name="p"):
    return Parameter(np.asarray(value, dtype=float), group, name)


class TestLinear:
    def test_identity(self):
        tape = Tape()
        w = make_param(np.eye(2))
        b = make_param(np.zeros(2))
        out = tape.linear(tape.const([[1.0, 2.0]]), tape.param(w), tape.param(b))
        assert np.array_equal(out.value, [[1.0, 2.0]])

    def test_zero_input_passes_bias(self):
        tape = Tape()
        w = make_param(np.random.default_rng(0).normal(size=(2, 2)))
        b = make_param([3.0, 4.0])
        out = tape.linear(tape.const([[0.0, 0.0]]), tape.param(w), tape.param(b))
        assert np.array_equal(out.value, [[3.0, 4.0]])

    def test_forward_and_input_gradient(self):
        w = make_param([[1.0, 0.0], [0.0, 2.0]])
        b = make_param([1.0, 1.0])
        x0 = np.array([[1.0, 2.0]])

        def loss_of(xv):
            tape = Tape()
            out = tape.linear(tape.const(xv), tape.param(w), tape.param(b))
            return float(out.value.sum())

        tape = Tape()
        xp = make_param(x0, name="x")
        out = tape.linear(tape.param(xp), tape.param(w), tape.param(b))
        assert np.allclose(out.value, [[2.0, 5.0]])
        tape.backward(tape.sum(out))
        assert max_rel_err(xp.grad, finite_diff(loss_of, x0)) < 1e-4
        assert np.allclose(xp.grad, [[1.0, 2.0]])

    def test_shape_mismatch_names_shapes(self):
        tape = Tape()
        w = make_param(np.zeros((3, 2)))
        b = make_param(np.zeros(2))
        with pytest.raises(DimensionError, match=r"\(1, 2\).*\(3, 2\)"):
            tape.linear(tape.const([[1.0, 2.0]]), tape.param(w), tape.param(b))


class TestActivations:
    def test_sigmoid_at_zero(self):
        tape = Tape()
        assert tape.sigmoid(tape.const([0.0])).value[0] == 0.5

    def test_softmax_symmetry(self):
        tape = Tape()
        out = tape.softmax_rows(tape.const([[0.0, 0.0, 0.0, 0.0]]))
        assert np.allclose(out.value, 0.25)

    def test_softmax_two_values(self):
        tape = Tape()
        out = tape.softmax_rows(tape.const([[1.0, 2.0]]))
        assert np.allclose(out.value, [[0.26894, 0.73106]], atol=1e-5)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        tape = Tape()
        out = tape.softmax_rows(tape.const(rng.normal(size=(6, 5)) * 10))
        assert np.allclose(out.value.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((out.value > 0) & (out.value < 1))

    def test_log_rejects_nonpositive(self):
        tape = Tape()
        with pytest.raises(ValueError, match="non-positive"):
            tape.log(tape.const([1.0, 0.0]))


class TestGradReverse:
    def test_forward_identity_bitwise(self):
        tape = Tape()
        x = np.array([1.5, -2.0])
        out = tape.grad_reverse(tape.const(x), 0.3)
        assert np.array_equal(out.value, x)

    def test_backward_sign_and_scale(self):
        tape = Tape()
        xp = make_param([0.0, 0.0], name="x")
        rev = tape.grad_reverse(tape.param(xp), 1e-2)
        # loss = 1*rev[0] + 2*rev[1] gives upstream grad [1, 2]
        loss = tape.sum(tape.mul(rev, tape.const([1.0, 2.0])))
        tape.backward(loss)
        assert np.array_equal(xp.grad, [-0.01, -0.02])

    def test_composed_gradient_is_minus_lambda(self):
        xp = make_param([1.0, -0.5, 2.0], name="x")
        tape = Tape()
        loss = tape.sum(tape.grad_reverse(tape.param(xp), 0.5))
        tape.backward(loss)
        assert np.array_equal(xp.grad, [-0.5, -0.5, -0.5])
        # finite differences on the composed graph see the forward identity,
        # so they disagree with autodiff by exactly the factor -lambda

        def loss_of(xv):
            t = Tape()
            return float(t.sum(t.grad_reverse(t.const(xv), 0.5)).value)

        fd = finite_diff(loss_of, np.array([1.0, -0.5, 2.0]))
        assert np.allclose(xp.grad, -0.5 * fd)

    def test_exact_scale_relation_through_downstream_graph(self):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(3, 4))
        w = make_param(rng.normal(size=(4, 2)), name="w")
        b = make_param(np.zeros(2), name="b")
        lam = 0.01

        def theta_grad(with_reversal):
            xp = make_param(x0, name="x")
            tape = Tape()
            node = tape.param(xp)
            if with_reversal:
                node = tape.grad_reverse(node, lam)
            out = tape.linear(node, tape.param(w), tape.param(b))
            tape.backward(tape.sum(tape.mul(out, out)))
            return xp.grad

        g_rev, g_plain = theta_grad(True), theta_grad(False)
        assert np.allclose(g_rev, -lam * g_plain, rtol=1e-12, atol=1e-15)

    def test_lambda_must_be_positive(self):
        tape = Tape()
        with pytest.raises(ConfigError):
            tape.grad_reverse(tape.const([1.0]), 0.0)
        with pytest.raises(ConfigError):
            tape.grad_reverse(tape.const([1.0]), -0.1)


class TestBackward:
    def test_matmul_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4))
        w0 = rng.normal(size=(4, 2))

        def loss_of(wv):
            tape = Tape()
            wp = make_param(wv, name="w")
            out = tape.linear(tape.const(x), tape.param(wp), tape.param(make_param(np.zeros(2))))
            return float(tape.sum(out).value)

        wp = make_param(w0, name="w")
        tape = Tape()
        out = tape.linear(tape.const(x), tape.param(wp), tape.param(make_param(np.zeros(2))))
        tape.backward(tape.sum(out))
        assert max_rel_err(wp.grad, finite_diff(loss_of, w0)) < 1e-4

    def test_constant_loss_leaves_grads_zero(self):
        wp = make_param(np.ones((2, 2)), name="w")
        tape = Tape()
        tape.param(wp)  # recorded but unreachable from the loss
        loss = tape.sum(tape.const(np.array(5.0)))
        tape.backward(loss)
        assert np.array_equal(wp.grad, np.zeros((2, 2)))

    def test_backward_accumulates_additively(self):
        wp = make_param([2.0], name="w")
        tape = Tape()
        loss = tape.sum(tape.mul(tape.param(wp), tape.param(wp)))
        tape.backward(loss)
        once = wp.grad.copy()
        tape.backward(loss)
        assert np.array_equal(wp.grad, 2 * once)

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        with pytest.raises(DimensionError, match="scalar"):
            tape.backward(tape.const([1.0, 2.0]))


class TestOptimizer:
    def test_first_step_is_signed_lr(self):
        p = make_param([1.0, -1.0], name="w")
        opt = Optimizer([p], {"feature_extractor": 0.1})
        p.grad[...] = [0.3, -0.7]
        opt.step()
        assert np.allclose(p.value, [1.0 - 0.1, -1.0 + 0.1], atol=1e-6)
        assert np.array_equal(p.grad, [0.0, 0.0])

    def test_zero_grad_leaves_parameter_unchanged(self):
        p = make_param([1.0], name="w")
        opt = Optimizer([p], {"feature_extractor": 0.1})
        opt.step()
        assert p.value[0] == 1.0

    def test_quadratic_convergence_matches_scalar_recurrence(self):
        # oracle: run bias-corrected Adam on (w-3)^2 directly
        w_ref, m, v, t = 0.0, 0.0, 0.0, 0
        for _ in range(100):
            t += 1
            g = 2 * (w_ref - 3.0)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w_ref -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert abs(w_ref - 3.0) < 0.05

        p = make_param([0.0], name="w")
        opt = Optimizer([p], {"feature_extractor": 0.1})
        for _ in range(100):
            tape = Tape()
            diff = tape.add(tape.param(p), tape.const([-3.0]))
            tape.backward(tape.sum(tape.mul(diff, diff)))
            opt.step()
        assert abs(p.value[0] - 3.0) < 0.05
        assert np.isclose(p.value[0], w_ref)

    def test_per_group_learning_rates(self):
        pf = make_param([0.0], "feature_extractor", "f")
        pd = make_param([0.0], "domain_classifier", "d")
        opt = Optimizer([pf, pd], {"feature_extractor": 0.1, "domain_classifier": 0.01})
        pf.grad[...] = 1.0
        pd.grad[...] = 1.0
        opt.step()
        assert np.isclose(pf.value[0], -0.1, atol=1e-6)
        assert np.isclose(pd.value[0], -0.01, atol=1e-7)

    def test_missing_group_lr_rejected(self):
        with pytest.raises(ConfigError):
            Optimizer([make_param([0.0], "domain_classifier")], {"feature_extractor": 0.1})

    def test_in_place_step_matches_the_out_of_place_formula_bit_for_bit(self):
        rng = np.random.default_rng(5)
        lrs = {"feature_extractor": 1e-3, "label_predictor": 3e-2, "domain_classifier": 0.5}
        params = [make_param(rng.normal(size=shape), group, group)
                  for shape, group in (((7, 5), "feature_extractor"), ((5,), "label_predictor"),
                                       ((5, 3), "domain_classifier"))]
        ref = [p.value.copy() for p in params]
        m = [np.zeros_like(w) for w in ref]
        v = [np.zeros_like(w) for w in ref]
        opt = Optimizer(params, lrs)
        for t in range(1, 301):
            for i, p in enumerate(params):
                g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=p.value.shape)
                p.grad[...] = g
                lr = lrs[p.group]
                m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g
                v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * g**2
                m_hat = m[i] / (1.0 - ADAM_BETA1**t)
                v_hat = v[i] / (1.0 - ADAM_BETA2**t)
                ref[i] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            opt.step()
            for p, w in zip(params, ref):
                assert np.array_equal(p.value, w), (t, p.group)

    def test_sgd_mode_is_plain_descent(self):
        p = make_param([1.0], name="w")
        opt = Optimizer([p], {"feature_extractor": 0.5}, sgd=True)
        p.grad[...] = 0.4
        opt.step()
        assert p.value[0] == 1.0 - 0.5 * 0.4


@st.composite
def small_matrix(draw, min_dim=1, max_dim=5):
    rows = draw(st.integers(min_dim, max_dim))
    cols = draw(st.integers(min_dim, max_dim))
    seed = draw(st.integers(0, 2**31 - 1))
    return np.random.default_rng(seed).uniform(-2.0, 2.0, size=(rows, cols))


class TestGradientFidelity:
    @settings(max_examples=25, deadline=None)
    @given(small_matrix())
    def test_elementwise_ops(self, x):
        for op in ("relu", "sigmoid", "softmax_rows", "log_softmax_rows"):
            def loss_of(xv, op=op):
                tape = Tape()
                out = getattr(tape, op)(tape.const(xv))
                return float(tape.sum(tape.mul(out, out)).value)

            xp = make_param(x, name="x")
            tape = Tape()
            out = getattr(tape, op)(tape.param(xp))
            tape.backward(tape.sum(tape.mul(out, out)))
            assert max_rel_err(xp.grad, finite_diff(loss_of, x)) < 1e-4, op

    @settings(max_examples=25, deadline=None)
    @given(small_matrix(), st.data())
    def test_pooling_ops(self, x, data):
        rows = x.shape[0]
        cut_after = data.draw(st.lists(st.booleans(), min_size=rows - 1, max_size=rows - 1))
        lengths = np.diff([0, *(i + 1 for i, cut in enumerate(cut_after) if cut), rows])

        def loss_of(xv):
            tape = Tape()
            pooled = tape.mean_pool_segments(tape.const(xv), lengths)
            return float(tape.sum(tape.mul(pooled, pooled)).value)

        xp = make_param(x, name="x")
        tape = Tape()
        pooled = tape.mean_pool_segments(tape.param(xp), lengths)
        tape.backward(tape.sum(tape.mul(pooled, pooled)))
        assert max_rel_err(xp.grad, finite_diff(loss_of, x)) < 1e-4

    @settings(max_examples=25, deadline=None)
    @given(small_matrix(), st.integers(0, 2**31 - 1))
    def test_compositions_match_numpy_and_pass_the_upstream_gradient(self, x, seed):
        # x - y, 1 - p and a stopped gradient, as the tape writes them without ops of their own
        rng = np.random.default_rng(seed)
        y, g = rng.uniform(-2.0, 2.0, x.shape), rng.uniform(-2.0, 2.0, x.shape)
        p = rng.uniform(0.0, 1.0, x.shape)
        xp, pp = make_param(x, name="x"), make_param(p, name="p")
        tape = Tape()
        xn, pn = tape.param(xp), tape.param(pp)
        diff = tape.add(xn, tape.const(-y))
        one_minus_p = tape.add(tape.scale(pn, -1.0), tape.const(np.ones_like(p)))
        stopped = tape.const(xn.value)
        assert np.array_equal(diff.value, x - y)
        assert np.array_equal(one_minus_p.value, 1 - p)
        assert np.array_equal(stopped.value, x)
        upstream = tape.const(g)
        terms = [tape.sum(tape.mul(n, upstream)) for n in (diff, one_minus_p, stopped)]
        tape.backward(tape.add(tape.add(terms[0], terms[1]), terms[2]))
        assert np.array_equal(xp.grad, g)  # from diff alone: none flows through stopped
        assert np.array_equal(pp.grad, -g)

    @settings(max_examples=20, deadline=None)
    @given(small_matrix(min_dim=2, max_dim=4))
    def test_grad_reverse_forward_identity(self, x):
        tape = Tape()
        assert np.array_equal(tape.grad_reverse(tape.const(x), 0.123).value, x)


def test_determinism_same_seed_same_ops():
    def run():
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 3))
        w = make_param(rng.normal(size=(3, 2)), name="w")
        tape = Tape()
        out = tape.relu(tape.linear(tape.const(x), tape.param(w), tape.param(make_param(np.zeros(2)))))
        loss = tape.sum(out)
        tape.backward(loss)
        return out.value.copy(), w.grad.copy()

    out1, g1 = run()
    out2, g2 = run()
    assert np.array_equal(out1, out2)
    assert np.array_equal(g1, g2)


def test_mean_pool_segments_matches_per_segment_means():
    rng = np.random.default_rng(9)
    parts = [rng.normal(size=(t, 3)) for t in (2, 5, 1)]
    x = np.concatenate(parts, axis=0)

    def loss_of(xv):
        tape = Tape()
        pooled = tape.mean_pool_segments(tape.const(xv), [2, 5, 1])
        return float(tape.sum(tape.mul(pooled, pooled)).value)

    xp = make_param(x, name="x")
    tape = Tape()
    pooled = tape.mean_pool_segments(tape.param(xp), [2, 5, 1])
    assert np.allclose(pooled.value, np.stack([p.mean(axis=0) for p in parts]))
    tape.backward(tape.sum(tape.mul(pooled, pooled)))
    assert max_rel_err(xp.grad, finite_diff(loss_of, x)) < 1e-4
