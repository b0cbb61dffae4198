"""Engine tests: primitive forwards vs oracles, backprop, tape, Adam."""

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gazelab.analysis as analysis
import gazelab.tensor as tensor_mod
import gazelab.train as train_mod
from gazelab.model import ModelConfig, ScanpathModel
from gazelab.optim import BLOCK, Adam
from gazelab.synthetic import build_corpus, smoke_config
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
    linear,
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

from support import (
    PerArrayAdam,
    loop_lstm_bptt,
    naive_matmul,
    primitive_grad_cases,
)


def assert_same_bytes(actual, expected):
    assert actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == \
        np.ascontiguousarray(expected).tobytes()


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

    def test_stacked_matmul_is_each_slice_product(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=(3, 4, 5))
        out = matmul(a, b).data
        assert out.shape == (3, 2, 5)
        for s in range(3):
            np.testing.assert_allclose(out[s], naive_matmul(a[s], b[s]), rtol=1e-12)

    def test_grouped_matmul_is_each_group_product(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(3, 4, 5))
        out = matmul(a, b).data
        assert out.shape == (6, 5)
        for g in range(3):
            np.testing.assert_allclose(out[2 * g:2 * g + 2],
                                       naive_matmul(a[2 * g:2 * g + 2], b[g]),
                                       rtol=1e-12)

    def test_one_group_is_the_plain_product_bit_for_bit(self):
        # a model training batch is one image: the grouped form must give
        # it the bytes of the 2-D product, forward and backward
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 37))
        e = rng.normal(size=(37, 11))
        g = rng.normal(size=(5, 11))
        results = []
        for b in (e, e[None]):
            a = Tensor(x.copy(), trainable=True)
            with Tape() as tape:
                out = matmul(a, b)
                loss = tsum(mul(out, g))
            results.append((out.data, tape.gradients(loss)[a]))
        for plain, grouped in zip(*results):
            assert_same_bytes(grouped, plain)

    @pytest.mark.parametrize("groups", [1, 3])
    def test_row_groups_and_their_reshape_give_the_same_bytes(self, groups):
        # the LOOCV classifier passes (G, n, k) rows, the model (G * n, k):
        # both layouts are one product, forward and backward
        rng = np.random.default_rng(11)
        x = rng.normal(size=(groups, 5, 37))
        e = rng.normal(size=(groups, 37, 11))
        g = rng.normal(size=(groups, 5, 11))
        results = []
        for shape in (x.shape, (groups * 5, 37)):
            a = Tensor(x.reshape(shape).copy(), trainable=True)
            b = Tensor(e.copy(), trainable=True)
            with Tape() as tape:
                out = matmul(a, b)
                loss = tsum(mul(out, g.reshape(out.data.shape)))
            grads = tape.gradients(loss)
            assert out.data.shape == shape[:-1] + (11,)
            results.append((out.data.reshape(groups, 5, 11),
                            grads[a].reshape(x.shape), grads[b]))
        for rows_3d, rows_2d in zip(*results):
            assert_same_bytes(rows_2d, rows_3d)

    def test_stacked_matmul_shape_errors(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(3, 2, 4\).*\(2, 4, 5\)"):
            matmul(np.ones((3, 2, 4)), np.ones((2, 4, 5)))
        with pytest.raises(ShapeError, match=r"matmul.*\(3, 2, 4\).*\(3, 3, 5\)"):
            matmul(np.ones((3, 2, 4)), np.ones((3, 3, 5)))
        with pytest.raises(ShapeError, match=r"matmul.*\(3, 2, 4\).*\(4, 5\)"):
            matmul(np.ones((3, 2, 4)), np.ones((4, 5)))
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 4\).*\(3, 4, 5\)"):
            matmul(np.ones((2, 4)), np.ones((3, 4, 5)))
        with pytest.raises(ShapeError, match=r"matmul.*\(6, 3\).*\(3, 4, 5\)"):
            matmul(np.ones((6, 3)), np.ones((3, 4, 5)))
        with pytest.raises(ShapeError, match=r"matmul.*\(4,\).*\(3, 4, 5\)"):
            matmul(np.ones(4), np.ones((3, 4, 5)))

    # (n, k, m); an odd k in the hundreds is where BLAS gives g.T @ x and
    # (x.T @ g).T different bytes
    @pytest.mark.parametrize("n, k, m", [(1, 1, 1), (3, 4, 5), (64, 257, 64),
                                         (4, 257, 1024)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_linear_equals_numpy_composition_byte_for_byte(self, n, k, m,
                                                           bias):
        rng = np.random.default_rng([n, k, m])
        x = Tensor(rng.normal(size=(n, k)), trainable=True)
        w = Tensor(rng.normal(size=(m, k)), trainable=True)
        b = Tensor(rng.normal(size=m), trainable=True) if bias else None
        g = rng.normal(size=(n, m))
        with Tape() as tape:
            out = linear(x, w, b)
            loss = tsum(mul(out, g))  # hands linear the gradient g exactly
        grads = tape.gradients(loss)
        value = x.data @ w.data.T
        if bias:
            value = value + b.data
            assert_same_bytes(grads[b], g.sum(0))
        assert_same_bytes(out.data, value)
        assert_same_bytes(grads[x], g @ w.data)
        assert_same_bytes(grads[w], (x.data.T @ g).T)

    def test_linear_shape_errors_name_linear(self):
        with pytest.raises(ShapeError, match=r"linear.*\(2, 3\).*\(4, 2\)"):
            linear(np.ones((2, 3)), np.ones((4, 2)))
        with pytest.raises(ShapeError, match=r"linear.*\(3,\).*\(4, 3\)"):
            linear(np.ones(3), np.ones((4, 3)))
        with pytest.raises(ShapeError, match=r"linear.*\(4,\).*\(5,\)"):
            linear(np.ones((2, 3)), np.ones((4, 3)), np.ones(5))

    def test_matmul_vector_right_operand_gradient_is_outer_product(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(4, 3)), trainable=True)
        v = Tensor(rng.normal(size=3), trainable=True)
        row = Tensor(rng.normal(size=3), trainable=True)
        g = rng.normal(size=4)
        with Tape() as tape:
            loss = tsum(mul(matmul(a, v), g)) + tsum(mul(matmul(row, v), 2.0))
        grads = tape.gradients(loss)
        np.testing.assert_array_equal(grads[a], np.outer(g, v.data))
        np.testing.assert_array_equal(grads[row], 2.0 * v.data)

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

    def test_reshape_views_a_contiguous_result_and_copies_a_strided_one(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        view = reshape(x, (2, 6))
        assert np.shares_memory(view.data, x.data)
        # (4, 3) with strides (8, 32) reshapes to a strided view of x
        strided = reshape(Tensor(x.data.T), (2, 2, 3))
        assert strided.data.flags.c_contiguous
        assert not np.shares_memory(strided.data, x.data)
        np.testing.assert_array_equal(strided.data,
                                      x.data.T.copy().reshape(2, 2, 3))
        assert reshape(Tensor([2.0]), ()).data.shape == ()


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

    def test_constant_operand_is_not_a_parent(self):
        w = Tensor(np.ones((2, 3)), trainable=True)
        with Tape() as tape:
            out = matmul(w, np.arange(3.0))
        node = tape.nodes[out.node]
        assert (node.op, node.parents, len(node.vjps)) == ("matmul", (w.node,), 1)

    def test_tape_of_another_thread_is_invisible(self):
        # each thread keeps its own stack of open tapes
        opened, release = threading.Event(), threading.Event()
        tapes = []

        def hold_a_tape():
            with Tape() as tape:
                tapes.append(tape)
                opened.set()
                release.wait(10.0)

        worker = threading.Thread(target=hold_a_tape)
        worker.start()
        try:
            assert opened.wait(10.0)
            w = Tensor(np.ones(3), trainable=True)
            out = tsum(mul(w, 2.0))
            assert out.node is None and w.node is None
            assert tapes[0].nodes == []
        finally:
            release.set()
            worker.join(10.0)
        assert not worker.is_alive()

    def test_untaped_concat_and_lstm_build_no_gradient_functions(self,
                                                                 monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("gradient work with no tape active")

        for name in ("_slicer", "itemgetter", "_lstm_bptt", "_trace"):
            monkeypatch.setattr(tensor_mod, name, refuse)
        assert concat([np.ones((2, 3)), np.zeros((1, 3))]).shape == (3, 3)
        assert lstm(np.zeros((2, 1, 4)), np.zeros((4, 1)),
                    np.zeros((1, 2))).shape == (2, 1, 2)

    def test_second_gradients_call_rejected(self):
        x = Tensor(np.ones(2), trainable=True)
        with Tape() as tape:
            loss = tsum(mul(x, x))
        tape.gradients(loss)
        with pytest.raises(ValueError, match="already"):
            tape.gradients(loss)


class TestFusedPrimitives:
    @settings(max_examples=100, deadline=None)
    @given(steps=st.integers(1, 7), batch=st.integers(1, 4),
           h=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_lstm_sequence_equals_chained_single_steps(self, steps, batch, h,
                                                       seed):
        # free running feeds the carry of one-step calls forward; teacher
        # forcing makes one call over all steps: both must run one recurrence
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=2.0, size=(steps, batch, 4 * h))
        w_hh = rng.normal(size=(4 * h, h))
        state = Tensor(rng.normal(size=(batch, 2 * h)))
        whole = lstm(z, w_hh, state).data
        for t in range(steps):
            row = lstm(z[t:t + 1], w_hh, state)
            np.testing.assert_array_equal(row.data[0], whole[t])
            state = reshape(narrow(row, 0, 0, 1), (batch, 2 * h))

    @settings(max_examples=150, deadline=None)
    @given(steps=st.integers(1, 13), batch=st.integers(1, 5),
           h=st.integers(1, 8), halves=st.sampled_from(["h", "c", "both"]),
           seed=st.integers(0, 2**32 - 1))
    def test_lstm_gradients_equal_step_by_step_loop(self, steps, batch, h,
                                                    halves, seed):
        rng = np.random.default_rng(seed)
        z = Tensor(rng.normal(scale=2.0, size=(steps, batch, 4 * h)),
                   trainable=True)
        w_hh = Tensor(rng.normal(size=(4 * h, h)), trainable=True)
        state = Tensor(rng.normal(size=(batch, 2 * h)), trainable=True)
        g = rng.normal(size=(steps, batch, 2 * h))
        if halves == "h":
            g[:, :, h:] = 0.0
        elif halves == "c":
            g[:, :, :h] = 0.0
        with Tape() as tape:
            out = lstm(z, w_hh, state)
            loss = tsum(mul(out, g))  # hands lstm the gradient g exactly
        grads = tape.gradients(loss)
        expected = loop_lstm_bptt(z.data, w_hh.data, state.data, out.data, g)
        for operand, want in zip((z, w_hh, state), expected):
            assert_same_bytes(grads[operand], want)

    def test_lstm_gradient_same_traced_alone_or_together(self):
        # the three operands share one backward pass; tracing fewer of them
        # must not change the gradient of the others by a single bit
        rng = np.random.default_rng(5)
        steps, batch, h = 3, 2, 4
        values = [rng.normal(size=shape) for shape in
                  ((steps, batch, 4 * h), (4 * h, h), (batch, 2 * h))]
        weights = rng.normal(size=(steps, batch, 2 * h))

        def grads(traced):
            operands = [Tensor(v, trainable=i in traced)
                        for i, v in enumerate(values)]
            with Tape() as tape:
                loss = tsum(mul(lstm(*operands), weights))
            found = tape.gradients(loss)
            return [found.get(t) for t in operands]

        together = grads({0, 1, 2})
        for i in range(3):
            alone = grads({i})
            np.testing.assert_array_equal(alone[i], together[i])
            assert sum(g is not None for g in alone) == 1

    def test_lstm_matches_gate_equations(self):
        # each of the B sequences runs its own recurrence from its own carry
        rng = np.random.default_rng(4)
        steps, batch, h = 5, 2, 3
        z = rng.normal(size=(steps, batch, 4 * h))
        w_hh = rng.normal(size=(4 * h, h))
        state = rng.normal(size=(batch, 2 * h))
        out = lstm(z, w_hh, state).data

        def logistic(v):
            return 1.0 / (1.0 + np.exp(-v))

        for b in range(batch):
            hid, cell = state[b, :h], state[b, h:]
            for t in range(steps):
                a = z[t, b] + w_hh @ hid
                cell = logistic(a[h:2 * h]) * cell + \
                    logistic(a[:h]) * np.tanh(a[2 * h:3 * h])
                hid = logistic(a[3 * h:]) * np.tanh(cell)
                np.testing.assert_allclose(out[t, b],
                                           np.concatenate([hid, cell]),
                                           rtol=0, atol=1e-12)

    def test_lstm_shape_errors(self):
        with pytest.raises(ShapeError, match="lstm"):
            lstm(np.zeros((2, 1, 6)), np.zeros((6, 1)), np.zeros((1, 2)))
        with pytest.raises(ShapeError, match="lstm"):
            lstm(np.zeros((2, 1, 8)), np.zeros((8, 2)), np.zeros((1, 2)))
        with pytest.raises(ShapeError, match="lstm"):
            lstm(np.zeros((2, 3, 8)), np.zeros((8, 2)), np.zeros((2, 4)))
        with pytest.raises(ShapeError, match="lstm"):
            lstm(np.zeros((2, 8)), np.zeros((8, 2)), np.zeros((1, 4)))

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

    def test_registry_is_what_runs_record(self, monkeypatch):
        # the ops a full-model training epoch and a LOOCV classifier epoch
        # record on the tapes their own loops open
        tapes = []

        class RecordingTape(Tape):
            def __enter__(self):
                tapes.append(self)
                return super().__enter__()

        monkeypatch.setattr(train_mod, "Tape", RecordingTape)
        monkeypatch.setattr(analysis, "Tape", RecordingTape)
        corpus = build_corpus(smoke_config(), 0)
        config = ModelConfig(n_observers=4, height=8, width=8, channels=6,
                             observer_dim=3, hidden=4, semantic_channels=2,
                             max_steps=4)
        train_mod.train(ScanpathModel(config, seed=0), corpus,
                        train_mod.TrainConfig(epochs=1))
        analysis.classify_group_loocv(np.eye(4), ["a", "a", "b", "b"],
                                      epochs=1)
        recorded = {node.op for tape in tapes for node in tape.nodes}
        assert recorded - {"leaf"} == set(DIFFERENTIABLE_PRIMITIVES)

    def test_constant_function_reports_zero(self):
        x = Tensor(np.ones(4), trainable=True)
        c = Tensor(np.full(4, 2.0))
        report = grad_check(lambda: tsum(mul(c, c)) + tsum(mul(x, 0.0)), {"x": x})
        assert report.passed
        assert report.worst() < 1e-10

    def test_nan_error_fails(self):
        p = Tensor(np.ones(3), trainable=True)
        c = Tensor(np.array([np.nan, 1.0, 1.0]))
        report = grad_check(lambda: tsum(mul(p, c)), {"p": p})
        assert not report.passed
        assert np.isnan(report.max_rel_err["p"]) and np.isnan(report.worst())

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

    def test_flat_update_matches_per_array_oracle_bit_for_bit(self):
        # 50 steps with weight decay, a 0-d array and two scaled arrays, one
        # at each end of the buffer so that the step sizes form three runs
        rng = np.random.default_rng(7)
        shapes = {"a": (3, 4), "b": (), "c": (5,), "d": (2, 2, 2)}
        start = {name: rng.normal(size=shape)
                 for name, shape in shapes.items()}
        scale = {"a": 10.0, "d": 3.0}
        params = {name: Tensor(x.copy(), trainable=True)
                  for name, x in start.items()}
        opt = Adam(params, lr=1e-2, weight_decay=5e-3, lr_scale=scale)
        oracle = PerArrayAdam({name: x.copy() for name, x in start.items()},
                              lr=1e-2, weight_decay=5e-3, lr_scale=scale)
        for _ in range(50):
            grads = {name: rng.normal(size=shape)
                     for name, shape in shapes.items()}
            opt.step({params[name]: g for name, g in grads.items()})
            oracle.step(grads)
        for name in shapes:
            np.testing.assert_array_equal(params[name].data,
                                          oracle.params[name], err_msg=name)

    def test_blocked_update_matches_per_array_oracle_bit_for_bit(self):
        # three equal blocks of 24,257 values: an unscaled parameter across
        # the first block edge, a scaled one across the second, and a 0-d
        # parameter
        rng = np.random.default_rng(17)
        shapes = {"a": (BLOCK - 5,), "b": (), "c": (100, 400), "d": (7,)}
        start = {name: rng.normal(size=shape)
                 for name, shape in shapes.items()}
        scale = {"c": 10.0}
        params = {name: Tensor(x.copy(), trainable=True)
                  for name, x in start.items()}
        assert 2 * BLOCK < sum(x.size for x in start.values())
        opt = Adam(params, lr=1e-2, weight_decay=5e-3, lr_scale=scale)
        oracle = PerArrayAdam({name: x.copy() for name, x in start.items()},
                              lr=1e-2, weight_decay=5e-3, lr_scale=scale)
        for _ in range(5):
            grads = {name: rng.normal(size=shape)
                     for name, shape in shapes.items()}
            opt.step({params[name]: g for name, g in grads.items()})
            oracle.step(grads)
        for name in shapes:
            assert_same_bytes(params[name].data, oracle.params[name])

    def test_parameters_become_views_of_one_buffer(self):
        params = {"w": Tensor(np.arange(6.0).reshape(2, 3), trainable=True),
                  "b": Tensor(np.array(-1.0), trainable=True)}
        Adam(params, lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(params["w"].data,
                                      np.arange(6.0).reshape(2, 3))
        assert float(params["b"].data) == -1.0
        assert params["w"].data.base is params["b"].data.base is not None

    def test_missing_gradient_rejected_with_its_name(self):
        p = Tensor(np.ones(2), trainable=True)
        q = Tensor(np.ones(3), trainable=True)
        opt = Adam({"p": p, "q": q}, lr=0.1, weight_decay=0.0)
        with pytest.raises(ValueError, match="parameter q"):
            opt.step({p: np.ones(2)})
        with pytest.raises(ValueError, match="shape"):
            opt.step({p: np.ones(2), q: np.ones(2)})
