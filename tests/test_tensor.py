"""Engine tests: primitive forwards vs oracles, backprop, tape, Adam."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazelab.optim import Adam
from gazelab.tensor import (
    DIFFERENTIABLE_PRIMITIVES,
    DomainError,
    GradCheckReport,
    ShapeError,
    Tape,
    Tensor,
    concat,
    gaussian_nll,
    grad_check,
    lstm,
    matmul,
    mul,
    narrow,
    reshape,
    softmax,
    softmax_nll,
    tanh,
    tsum,
)

from support import naive_matmul, primitive_grad_cases


class TestForward:
    @pytest.mark.parametrize("seed", range(10))
    def test_matmul_matches_triple_loop(self, seed):
        rng = np.random.default_rng(seed)
        m, n, p = rng.integers(1, 6, size=3)
        a = rng.normal(size=(m, n))
        b = rng.normal(size=(n, p))
        np.testing.assert_allclose(matmul(a, b).data, naive_matmul(a, b), rtol=1e-12)

    def test_matmul_vector_forms(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        v = rng.normal(size=4)
        w = rng.normal(size=3)
        np.testing.assert_allclose(matmul(a, v).data, naive_matmul(a, v), rtol=1e-12)
        np.testing.assert_allclose(matmul(w, a).data, naive_matmul(w, a), rtol=1e-12)
        np.testing.assert_allclose(matmul(v, v).data, naive_matmul(v, v), rtol=1e-12)

    def test_forward_identical_with_and_without_tape(self):
        rng = np.random.default_rng(11)
        w = Tensor(rng.normal(size=(4, 4)), trainable=True)
        x = Tensor(rng.normal(size=4))

        def run():
            return softmax(tanh(w @ x), axis=0).data

        bare = run()
        with Tape():
            taped = run()
        np.testing.assert_array_equal(bare, taped)


class TestBackward:
    def test_grad_of_inner_product_is_other_factor(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)), trainable=True)
        y = Tensor(rng.normal(size=(3, 4)))
        with Tape() as tape:
            loss = tsum(mul(x, y))
        np.testing.assert_array_equal(tape.gradients(loss)[x], y.data)

    def test_composite_matches_hand_derivation(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(3, 5)), trainable=True)
        x = Tensor(rng.normal(size=5))
        with Tape() as tape:
            h = tanh(w @ x)
            loss = tsum(h)
        g = tape.gradients(loss)[w]
        expect = np.outer(1.0 - np.tanh(w.data @ x.data) ** 2, x.data)
        np.testing.assert_allclose(g, expect, rtol=1e-12)

    def test_untouched_params_absent_from_map(self):
        used = Tensor(np.ones(3), trainable=True)
        unused = Tensor(np.ones(3), trainable=True)
        with Tape() as tape:
            loss = tsum(used)
        grads = tape.gradients(loss)
        assert used in grads and unused not in grads

    def test_nonscalar_root_rejected(self):
        x = Tensor(np.ones(3), trainable=True)
        with Tape() as tape:
            y = mul(x, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            tape.gradients(y)

    def test_two_passes_bit_identical(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(6, 6)), trainable=True)
        x = Tensor(rng.normal(size=6))

        def one_pass():
            with Tape() as tape:
                loss = tsum(softmax(w @ x, axis=0))
            return tape.gradients(loss)[w]

        np.testing.assert_array_equal(one_pass(), one_pass())

    def test_param_shared_across_ops_accumulates(self):
        x = Tensor(np.array([2.0]), trainable=True)
        with Tape() as tape:
            loss = tsum(mul(x, x))
        np.testing.assert_allclose(tape.gradients(loss)[x], [4.0])


class TestTape:
    def test_gradients_free_the_backward_closures(self):
        # every recorded Tensor points back at its tape, so a closure that
        # holds one sits in a reference cycle; freeing the closures lets
        # reference counting release what they hold, with no cyclic collector
        w = Tensor(np.ones(3), trainable=True)
        gc.disable()
        try:
            with Tape() as tape:
                scaled = mul(w, 2.0)
                loss = tsum(tanh(scaled))
            captured = weakref.ref(scaled.data)
            del scaled
            assert captured() is not None  # held by tanh's backward closure
            tape.gradients(loss)
            assert captured() is None
        finally:
            gc.enable()
        assert [node.op for node in tape.nodes] == ["leaf", "mul", "tanh", "sum"]

    def test_second_gradients_call_rejected(self):
        x = Tensor(np.ones(2), trainable=True)
        with Tape() as tape:
            loss = tsum(mul(x, x))
        tape.gradients(loss)
        with pytest.raises(ValueError, match="already"):
            tape.gradients(loss)


class TestFusedPrimitives:
    @settings(max_examples=100, deadline=None)
    @given(steps=st.integers(1, 7), h=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_lstm_sequence_equals_chained_single_steps(self, steps, h, seed):
        # free running feeds the carry of one-row calls forward; teacher
        # forcing makes one call over all rows: both must run one recurrence
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=2.0, size=(steps, 4 * h))
        w_hh = rng.normal(size=(4 * h, h))
        state = Tensor(rng.normal(size=2 * h))
        whole = lstm(z, w_hh, state).data
        for t in range(steps):
            row = lstm(z[t:t + 1], w_hh, state)
            np.testing.assert_array_equal(row.data[0], whole[t])
            state = reshape(narrow(row, 0, 0, 1), (2 * h,))

    def test_lstm_matches_gate_equations(self):
        rng = np.random.default_rng(4)
        steps, h = 5, 3
        z = rng.normal(size=(steps, 4 * h))
        w_hh = rng.normal(size=(4 * h, h))
        state = rng.normal(size=2 * h)
        out = lstm(z, w_hh, state).data

        def logistic(v):
            return 1.0 / (1.0 + np.exp(-v))

        hid, cell = state[:h], state[h:]
        for t in range(steps):
            a = z[t] + w_hh @ hid
            cell = logistic(a[h:2 * h]) * cell + \
                logistic(a[:h]) * np.tanh(a[2 * h:3 * h])
            hid = logistic(a[3 * h:]) * np.tanh(cell)
            np.testing.assert_allclose(out[t], np.concatenate([hid, cell]),
                                       rtol=0, atol=1e-12)

    def test_lstm_shape_errors(self):
        with pytest.raises(ShapeError, match="lstm"):
            lstm(np.zeros((2, 6)), np.zeros((6, 1)), np.zeros(2))
        with pytest.raises(ShapeError, match="lstm"):
            lstm(np.zeros((2, 8)), np.zeros((8, 2)), np.zeros(2))

    def test_softmax_nll_matches_log_of_softmax(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(scale=3.0, size=(4, 7))
        targets = [0, 6, 3, 3]
        probs = softmax(logits, axis=1).data
        expect = np.mean([-np.log(probs[t, c]) for t, c in enumerate(targets)])
        assert float(softmax_nll(logits, targets).data) == pytest.approx(expect, abs=1e-12)

    def test_softmax_nll_finite_where_softmax_underflows(self):
        # a probability below the smallest double still has a finite NLL
        logits = np.array([[0.0, -800.0]])
        assert float(softmax_nll(logits, [1]).data) == pytest.approx(800.0, abs=1e-9)

    def test_softmax_nll_rejects_bad_targets(self):
        with pytest.raises(DomainError, match="softmax_nll"):
            softmax_nll(np.zeros((2, 3)), [0, 3])
        with pytest.raises(ShapeError, match="softmax_nll"):
            softmax_nll(np.zeros((2, 3)), [0.0, 1.0])
        with pytest.raises(ShapeError, match="softmax_nll"):
            softmax_nll(np.zeros((2, 3)), [0])

    def test_gaussian_nll_rejects_bad_input(self):
        with pytest.raises(DomainError, match="variance"):
            gaussian_nll(np.zeros(2), np.array([1.0, 0.0]), np.zeros(2))
        with pytest.raises(ShapeError, match="gaussian_nll"):
            gaussian_nll(np.zeros(2), np.ones(3), np.zeros(2))


class TestGradCheck:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_primitive_passes(self, seed):
        for name, (f, params) in primitive_grad_cases(seed).items():
            report = grad_check(f, params)
            assert report.passed, f"{name}: max rel err {report.max_rel_err}"

    def test_case_table_covers_registry(self):
        assert set(primitive_grad_cases(0)) == set(DIFFERENTIABLE_PRIMITIVES)

    def test_constant_function_reports_zero(self):
        x = Tensor(np.ones(4), trainable=True)
        c = Tensor(np.full(4, 2.0))
        report = grad_check(lambda: tsum(mul(c, c)) + tsum(mul(x, 0.0)), {"x": x})
        assert report.passed
        assert report.worst() < 1e-10

    def test_report_shape(self):
        x = Tensor(np.ones(2), trainable=True)
        report = grad_check(lambda: tsum(mul(x, x)), {"x": x}, eps=1e-5, tol=1e-4)
        assert isinstance(report, GradCheckReport)
        assert set(report.max_rel_err) == {"x"}


class TestInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_softmax_simplex_and_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 7, size=2))
        x = rng.normal(size=shape) * 5.0
        s = softmax(Tensor(x), axis=1).data
        assert np.all(s >= 0.0)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        shifted = softmax(Tensor(x + 123.456), axis=1).data
        np.testing.assert_allclose(s, shifted, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_concat_split_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [int(n) for n in rng.integers(1, 5, size=3)]
        parts = [rng.normal(size=(n, 4)) for n in sizes]
        joined = concat([Tensor(p) for p in parts], axis=0)
        offsets = np.cumsum([0] + sizes)
        for original, start in zip(parts, offsets):
            piece = narrow(joined, 0, int(start), original.shape[0])
            np.testing.assert_array_equal(original, piece.data)

    def test_shape_error_names_op_and_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(4, 2\)"):
            matmul(np.ones((2, 3)), np.ones((4, 2)))
        with pytest.raises(ShapeError, match="concat"):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)


class TestAdam:
    def test_null_update_leaves_params_bit_identical(self):
        p = Tensor(np.array([1.0, -2.0, 3.5]), trainable=True)
        before = p.data.copy()
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step({p: np.zeros(3)})
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_identity(self):
        p = Tensor(np.array(1.0), trainable=True)
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step({p: np.array(1.0)})
        # bias-corrected m_hat / sqrt(v_hat) is exactly 1 on the first step
        assert abs(float(p.data) - 0.9) < 1e-8

    def test_decoupled_weight_decay_shrinks_without_gradient_signal(self):
        p = Tensor(np.array(1.0), trainable=True)
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.1)
        opt.step({p: np.array(0.0)})
        assert abs(float(p.data) - 0.99) < 1e-12

    def test_quadratic_convergence(self):
        rng = np.random.default_rng(42)
        target = rng.normal(size=8)
        p = Tensor(np.zeros(8), trainable=True)
        opt = Adam({"p": p}, lr=0.05, weight_decay=0.0)
        loss = None
        for _ in range(2000):
            with Tape() as tape:
                d = p - Tensor(target)
                loss = tsum(mul(d, d))
            opt.step(tape.gradients(loss))
        assert float(loss.data) < 1e-6

    def test_step_via_tensor_keyed_map(self):
        p = Tensor(np.array([1.0]), trainable=True)
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.0)
        with Tape() as tape:
            loss = tsum(mul(p, p))
        opt.step(tape.gradients(loss))
        assert p.data[0] < 1.0
