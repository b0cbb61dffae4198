"""Model tests: pathway math, toggles, rollouts, and gradient flow."""

import numpy as np
import pytest

from gazelab.config import TrainConfig
from gazelab.model import (
    ABLATION_VARIANTS,
    IOR_SIGMA_CELLS,
    ModelConfig,
    ScanpathModel,
    ablation_config,
    cell_center,
    grid_cell,
    init_params,
    param_shapes,
)
from gazelab.scanpath import Fixation, Scanpath
from gazelab.tensor import Tape, Tensor, grad_check, reshape
from gazelab.train import batch_loss, rollout_loss
from support import naive_matmul, reference_rollout


def tiny_config(**overrides):
    base = dict(n_observers=3, height=2, width=2, channels=2, observer_dim=3,
                hidden=4, semantic_channels=2, max_steps=4)
    base.update(overrides)
    return ModelConfig(**base)


def random_E(config, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 1.0,
                       (config.channels, config.height, config.width))


def path_at_cells(cells, config, dur=200.0, image_id=0, observer_id=0):
    fixes = []
    for cell in cells:
        x, y = cell_center(cell, config.height, config.width)
        fixes.append(Fixation(x, y, dur))
    return Scanpath(image_id=image_id, observer_id=observer_id,
                    fixations=tuple(fixes))


class TestConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert (cfg.height, cfg.width, cfg.channels) == (16, 16, 12)
        assert (cfg.observer_dim, cfg.hidden) == (16, 64)
        assert (cfg.semantic_channels, cfg.max_steps) == (4, 8)

    def test_rejects_bad_extents(self):
        with pytest.raises(ValueError, match="hidden"):
            tiny_config(hidden=0)

    def test_parameter_bound(self):
        # configs only: nothing is allocated. At 64x64 cells W_hs alone
        # holds 4096**2 values.
        ModelConfig(height=64, width=64)
        with pytest.raises(ValueError, match=(
                r"^ModelConfig\(n_observers=8, height=80, width=80, "
                r"channels=12, observer_dim=16, hidden=64, .*\) holds "
                r"42781939 parameter values, more than 33554432$")):
            ModelConfig(height=80, width=80)
        with pytest.raises(ValueError, match=r"hidden=10000000, .* holds "):
            ModelConfig(hidden=10_000_000)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="observer_mode"):
            tiny_config(observer_mode="giant_lookup_table")

    def test_ablation_table(self):
        base = tiny_config()
        assert len(ABLATION_VARIANTS) == 6
        full = ablation_config(base, "OE+FI+FP")
        assert full.enable_fi and full.enable_fp
        none = ablation_config(base, "none")
        assert not (none.enable_fi or none.enable_fp)
        assert ablation_config(base, "OE") == none
        one_hot = ablation_config(base, "one_hot")
        assert one_hot.observer_mode == "one_hot_concat"
        assert not one_hot.enable_fi and not one_hot.enable_fp
        with pytest.raises(ValueError, match="unknown variant"):
            ablation_config(base, "everything")

    def test_decoder_input_widens_for_one_hot(self):
        cfg = tiny_config(observer_mode="one_hot_concat")
        assert cfg.decoder_in_dim == cfg.hidden + cfg.n_observers
        params = init_params(cfg)
        assert params["W_ih"].data.shape == (4 * cfg.hidden,
                                             cfg.hidden + cfg.n_observers)


class TestObserverEncoding:
    def test_identity_embedding_selects_basis(self):
        cfg = tiny_config(observer_dim=3, n_observers=3)
        model = ScanpathModel(cfg)
        model.params["W_u"].data[:] = np.eye(3)
        u = model.encode_observers([2, 0])
        np.testing.assert_array_equal(u.data, [[0.0, 0.0, 1.0],
                                               [1.0, 0.0, 0.0]])

    def test_one_hot_selects_column(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=3)
        u = model.encode_observers(range(cfg.n_observers))
        np.testing.assert_array_equal(u.data, model.params["W_u"].data.T)

    def test_matches_naive_matmul(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=5)
        for i in range(cfg.n_observers):
            one_hot = model.one_hot(i)
            expect = naive_matmul(model.params["W_u"].data, one_hot)
            assert np.max(np.abs(model.encode_observers([i]).data[0] -
                                 expect)) < 1e-12

    def test_out_of_range_rejected(self):
        model = ScanpathModel(tiny_config())
        with pytest.raises(IndexError, match="out of range"):
            model.encode_observers([0, 3])
        with pytest.raises(IndexError, match="out of range"):
            model.encode_observers([-1])

    def test_disabled_returns_zero_vector(self):
        cfg = tiny_config(enable_fi=False, enable_fp=False)
        model = ScanpathModel(cfg)
        np.testing.assert_array_equal(model.encode_observers([1, 2]).data,
                                      np.zeros((2, cfg.observer_dim)))


class TestGuidance:
    def test_zero_readout_gives_uniform(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=1)
        model.params["w_eu"].data[:] = 0.0
        E_flat = model.features(random_E(cfg))
        m = model.observer_guidance(E_flat, model.encode_observers([0, 1]))
        np.testing.assert_allclose(m.data,
                                   np.full((2, cfg.cells), 1 / cfg.cells),
                                   atol=1e-12)

    def test_constant_features_give_uniform_for_any_observer(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=2)
        E = np.full((cfg.channels, cfg.height, cfg.width), 0.37)
        E_flat = model.features(E)
        m = model.observer_guidance(
            E_flat, model.encode_observers(range(cfg.n_observers)))
        np.testing.assert_allclose(
            m.data, np.full((cfg.n_observers, cfg.cells), 1 / cfg.cells),
            atol=1e-12)

    def test_matches_per_location_loop(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=4)
        E = random_E(cfg, seed=4)
        E_flat = model.features(E)
        u = model.encode_observers([1, 2])
        m = model.observer_guidance(E_flat, u)
        p = {k: v.data for k, v in model.params.items()}
        for b in range(2):
            scores = np.zeros(cfg.cells)
            for loc in range(cfg.cells):
                pre = p["W_eu"] @ E_flat.data[loc] + p["W_mu"] @ u.data[b]
                scores[loc] = p["w_eu"] @ np.tanh(pre)
            expect = np.exp(scores - scores.max())
            expect /= expect.sum()
            np.testing.assert_allclose(m.data[b], expect, atol=1e-12)


class TestFixatedFeatures:
    def test_feature_grid_layout_is_row_major(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg)
        E = random_E(cfg, seed=9)
        E_flat = model.features(E)
        for row in range(cfg.height):
            for col in range(cfg.width):
                np.testing.assert_array_equal(
                    E_flat.data[row * cfg.width + col], E[:, row, col])

    def test_wrong_shape_rejected(self):
        model = ScanpathModel(tiny_config())
        with pytest.raises(ValueError, match="feature stack"):
            model.features(np.zeros((5, 2, 2)))


class TestIntegration:
    def two_maps(self, cfg, seed):
        rng = np.random.default_rng(seed)
        return Tensor(rng.dirichlet(np.ones(cfg.cells), size=2))

    def shared(self, model):
        return reshape(model.initial_map(), (1, model.config.cells))

    def test_all_zero_weights_annihilate(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=1)
        for name in ("W_hs", "b_hs", "W_hc", "b_hc", "W_us", "W_uc"):
            model.params[name].data[:] = 0.0
        E_flat = model.features(random_E(cfg))
        maps = self.two_maps(cfg, 1)
        X = model.integrate_features(E_flat, maps, self.shared(model),
                                     model.encode_observers([0]))
        np.testing.assert_array_equal(X.data, np.zeros((2, cfg.hidden)))

    def test_basis_vectors_give_single_entry(self):
        # u_s = e_1 and u_c = e_2 make R_t the single entry [1, 2]; pooled
        # over the HW cells it is 1 / HW at entry 2 of every row
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=1)
        model.params["W_hs"].data[:] = 0.0
        model.params["W_hc"].data[:] = 0.0
        model.params["W_us"].data[:] = 0.0
        model.params["W_uc"].data[:] = 0.0
        model.params["b_hs"].data[:] = 0.0
        model.params["b_hs"].data[1] = 1.0
        model.params["b_hc"].data[:] = 0.0
        model.params["b_hc"].data[2] = 1.0
        E_flat = model.features(random_E(cfg))
        X = model.integrate_features(E_flat, self.two_maps(cfg, 2),
                                     self.shared(model),
                                     model.encode_observers([0]))
        expect = np.zeros((2, cfg.hidden))
        expect[:, 2] = 1.0 / cfg.cells
        np.testing.assert_array_equal(X.data, expect)

    def test_matches_composed_loop_oracle(self):
        # the closed forms against the fixated stacks and the outer
        # product they stand for; two steps of two observers, in t-major
        # rows, each observer with its own guidance map and code
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=11)
        p = {k: v.data for k, v in model.params.items()}
        E_flat = model.features(random_E(cfg, seed=11))
        maps = Tensor(np.random.default_rng(11).dirichlet(np.ones(cfg.cells),
                                                          size=4))
        m_u = np.random.default_rng(12).dirichlet(np.ones(cfg.cells), size=2)
        u = model.encode_observers([2, 0])
        X = model.integrate_features(E_flat, maps, Tensor(m_u), u)
        for row, m_prev in enumerate(maps.data):
            b = row % 2
            stacks = np.concatenate([E_flat.data * m_prev[:, None],
                                     E_flat.data * m_u[b][:, None]], axis=1)
            u_s = np.maximum(p["W_hs"] @ stacks.mean(axis=1) + p["b_hs"], 0.0)
            u_s = u_s + p["W_us"] @ u.data[b]
            u_c = np.maximum(p["W_hc"] @ stacks.mean(axis=0) + p["b_hc"], 0.0)
            u_c = u_c + p["W_uc"] @ u.data[b]
            np.testing.assert_allclose(X.data[row],
                                       np.outer(u_s, u_c).mean(axis=0),
                                       atol=1e-12)

    def test_disabled_path_is_linear_projection(self):
        cfg = tiny_config(enable_fi=False)
        model = ScanpathModel(cfg, seed=12)
        E_flat = model.features(random_E(cfg, seed=12))
        maps = self.two_maps(cfg, 12)
        X = model.integrate_features(E_flat, maps, None,
                                     model.encode_observers([0]))
        for t, m_prev in enumerate(maps.data):
            R = (E_flat.data * m_prev[:, None]) @ model.params["W_fi"].data \
                + model.params["b_fi"].data
            np.testing.assert_allclose(X.data[t], R.mean(axis=0), atol=1e-12)


class TestDecoder:
    def test_zero_network_emits_biases(self):
        # a zero LSTM keeps the hidden state at zero, so the heads it feeds
        # read only their biases
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=1)
        for name in ("W_ih", "W_hh", "b_lstm"):
            model.params[name].data[:] = 0.0
        model.params["b_dur"].data[:] = [1.5, -0.3]
        X = Tensor(np.random.default_rng(1).normal(size=(3, cfg.hidden)))
        state, H = model.decoder_step(X, model.initial_state(1), [0])
        np.testing.assert_array_equal(H.data, np.zeros((3, cfg.hidden)))
        np.testing.assert_array_equal(state.carry.data,
                                      np.zeros((1, 2 * cfg.hidden)))
        assert state.t == 3
        mu, _ = model.duration_head(H)
        np.testing.assert_array_equal(mu.data, [1.5, 1.5, 1.5])

    def test_scalar_lstm_closed_form(self):
        cfg = tiny_config(hidden=1, semantic_channels=1, height=1, width=1,
                          channels=1, observer_dim=1)
        model = ScanpathModel(cfg, seed=2)
        wi, wf, wg, wo = 0.3, -0.5, 0.8, 0.2
        model.params["W_ih"].data[:, 0] = [wi, wf, wg, wo]
        model.params["W_hh"].data[:] = 0.0
        model.params["b_lstm"].data[:] = [0.1, 0.2, 0.3, 0.4]
        r = 0.7
        state, H = model.decoder_step(Tensor(np.array([[r]])),
                                      model.initial_state(1), [0])

        def logistic(v):
            return 1.0 / (1.0 + np.exp(-v))

        gi = logistic(wi * r + 0.1)
        gg = np.tanh(wg * r + 0.3)
        go = logistic(wo * r + 0.4)
        cell = gi * gg
        np.testing.assert_allclose(state.carry.data,
                                   [[go * np.tanh(cell), cell]], atol=1e-12)
        np.testing.assert_allclose(H.data, [[go * np.tanh(cell)]],
                                   atol=1e-12)

    def test_rows_match_one_row_calls(self):
        # one call over T rows runs the recurrence of T one-row calls from
        # the carried state; the input projection of all rows is one matmul,
        # which may round differently from T one-row products
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=3)
        X = Tensor(np.random.default_rng(3).normal(size=(4, cfg.hidden)))
        whole_state, whole = model.decoder_step(X, model.initial_state(1),
                                                [1])
        state = model.initial_state(1)
        for t in range(4):
            state, H = model.decoder_step(Tensor(X.data[t:t + 1]), state,
                                          [1])
            np.testing.assert_allclose(H.data[0], whole.data[t], rtol=0,
                                       atol=1e-14)
        np.testing.assert_allclose(state.carry.data, whole_state.carry.data,
                                   rtol=0, atol=1e-14)

    def test_deterministic(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=3)
        X = Tensor(np.random.default_rng(3).normal(size=(2, cfg.hidden)))
        s1, h1 = model.decoder_step(X, model.initial_state(1), [1])
        s2, h2 = model.decoder_step(X, model.initial_state(1), [1])
        np.testing.assert_array_equal(s1.carry.data, s2.carry.data)
        np.testing.assert_array_equal(h1.data, h2.data)

    def test_step_overflow_rejected(self):
        cfg = tiny_config(max_steps=2)
        model = ScanpathModel(cfg)
        X = Tensor(np.zeros((1, cfg.hidden)))
        state = model.initial_state(1)
        state, _ = model.decoder_step(X, state, [0])
        state, _ = model.decoder_step(X, state, [0])
        with pytest.raises(ValueError, match="max_steps"):
            model.decoder_step(X, state, [0])
        with pytest.raises(ValueError, match="max_steps"):
            model.decoder_step(Tensor(np.zeros((3, cfg.hidden))),
                               model.initial_state(1), [0])

    def test_one_hot_concat_conditions_decoder(self):
        cfg = tiny_config(observer_mode="one_hot_concat", enable_fi=False,
                          enable_fp=False)
        model = ScanpathModel(cfg, seed=4)
        X = Tensor(np.random.default_rng(4).normal(size=(2, cfg.hidden)))
        _, H = model.decoder_step(X, model.initial_state(2), [0, 1])
        assert np.max(np.abs(H.data[0] - H.data[1])) > 0.0


def fixed_bank(model, A):
    """Make the semantic maps of a zero hidden state equal the rows of A."""
    for name in ("W_a", "W_q", "b_q"):
        model.params[name].data[:] = 0.0
    model.params["b_a"].data[:] = np.asarray(A).ravel()
    return Tensor(np.zeros((1, model.config.hidden)))


def softmax_row(v):
    e = np.exp(v - v.max())
    return e / e.sum()


class TestPrioritization:
    def test_single_map_degenerates(self):
        cfg = tiny_config(semantic_channels=1)
        model = ScanpathModel(cfg, seed=5)
        E_flat = model.features(random_E(cfg, seed=5))
        A = np.random.default_rng(5).normal(size=(1, cfg.cells))
        H = fixed_bank(model, A)
        logits, beta, _ = model.prioritize_fixation(
            E_flat, H, model.encode_observers([0]))
        np.testing.assert_allclose(beta.data, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(logits.data, A, atol=1e-12)

    def test_identical_maps_make_weights_irrelevant(self):
        cfg = tiny_config(semantic_channels=3)
        model = ScanpathModel(cfg, seed=6)
        E_flat = model.features(random_E(cfg, seed=6))
        row = np.random.default_rng(6).normal(size=cfg.cells)
        H = fixed_bank(model, np.tile(row, (3, 1)))
        for i in range(cfg.n_observers):
            logits, _, _ = model.prioritize_fixation(
                E_flat, H, model.encode_observers([i]))
            np.testing.assert_allclose(softmax_row(logits.data[0]),
                                       softmax_row(row), atol=1e-12)

    def test_two_map_scalar_trace(self):
        cfg = tiny_config(semantic_channels=2)
        model = ScanpathModel(cfg, seed=7)
        p = {k: v.data for k, v in model.params.items()}
        E_flat = model.features(random_E(cfg, seed=7))
        A = np.random.default_rng(7).normal(size=(2, cfg.cells))
        H = fixed_bank(model, A)
        u = model.encode_observers([1])
        logits, beta, V = model.prioritize_fixation(E_flat, H, u)
        V_ref = np.zeros((2, cfg.channels))
        scores = np.zeros(2)
        for l in range(2):
            V_ref[l] = (E_flat.data * A[l][:, None]).mean(axis=0)
            scores[l] = p["w_b"] @ np.tanh(p["W_b"] @ V_ref[l] +
                                           p["W_um"] @ u.data[0])
        beta_ref = softmax_row(scores)
        combined = beta_ref[0] * A[0] + beta_ref[1] * A[1]
        np.testing.assert_allclose(V.data, V_ref, atol=1e-12)
        np.testing.assert_allclose(beta.data, [beta_ref], atol=1e-12)
        np.testing.assert_allclose(logits.data, [combined], atol=1e-12)

    def test_disabled_path_projects_hidden_state(self):
        cfg = tiny_config(enable_fp=False)
        model = ScanpathModel(cfg, seed=8)
        E_flat = model.features(random_E(cfg, seed=8))
        H = Tensor(np.random.default_rng(8).normal(size=(2, cfg.hidden)))
        logits, beta, _ = model.prioritize_fixation(
            E_flat, H, model.encode_observers([0]))
        expect = H.data @ model.params["W_fp"].data.T + \
            model.params["b_fp"].data
        np.testing.assert_allclose(logits.data, expect, atol=1e-12)
        np.testing.assert_array_equal(beta.data, [[1.0], [1.0]])

    def test_logit_shift_invariance(self):
        # adding a constant to the combined pre-softmax scores leaves the
        # map unchanged; checked on real model logits
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=9)
        E_flat = model.features(random_E(cfg, seed=9))
        A = np.random.default_rng(9).normal(size=(cfg.semantic_channels,
                                                  cfg.cells))
        H = fixed_bank(model, A)
        logits, beta, _ = model.prioritize_fixation(
            E_flat, H, model.encode_observers([0]))
        shifted = beta.data[0] @ A + 123.456
        assert np.max(np.abs(softmax_row(logits.data[0]) -
                             softmax_row(shifted))) < 1e-9


class TestDurationHead:
    def test_zero_weights_emit_biases(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=1)
        model.params["W_dur"].data[:] = 0.0
        model.params["b_dur"].data[:] = [1.5, -0.3]
        mu, var = model.duration_head(Tensor(np.ones((2, cfg.hidden))))
        np.testing.assert_allclose(mu.data, [1.5, 1.5], atol=1e-12)
        np.testing.assert_allclose(
            var.data, [np.logaddexp(0.0, -0.3) + 1e-4] * 2, atol=1e-12)

    def test_variance_positive_across_draws(self):
        cfg = tiny_config()
        rng = np.random.default_rng(2)
        for trial in range(1000):
            model = ScanpathModel(cfg, seed=trial % 17)
            H = Tensor(rng.normal(scale=3.0, size=(1, cfg.hidden)))
            _, var = model.duration_head(H)
            assert float(var.data[0]) > 0.0

    def test_nll_gradient_matches_finite_differences(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=3)
        E = random_E(cfg, seed=3)
        gt = path_at_cells([0, 3, 1], cfg, dur=240.0)

        def f():
            return rollout_loss(model, E, 1, gt)[2]

        head = {"W_dur": model.params["W_dur"],
                "b_dur": model.params["b_dur"]}
        report = grad_check(f, head, eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err


class TestRollout:
    def test_single_fixation_gives_one_step(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=1)
        gt = path_at_cells([2], cfg)
        steps = model.rollout_teacher_forced(random_E(cfg), 0, gt)
        assert len(steps) == 1

    def test_causality(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=2)
        E = random_E(cfg, seed=2)
        gt_a = path_at_cells([0, 1, 2, 3], cfg)
        gt_b = path_at_cells([0, 1, 3, 0], cfg)
        steps_a = model.rollout_teacher_forced(E, 1, gt_a)
        steps_b = model.rollout_teacher_forced(E, 1, gt_b)
        for t in range(3):
            np.testing.assert_array_equal(steps_a[t][0].data,
                                          steps_b[t][0].data)
            np.testing.assert_array_equal(steps_a[t][1].data,
                                          steps_b[t][1].data)
        assert np.max(np.abs(steps_a[3][0].data - steps_b[3][0].data)) > 0.0

    @pytest.mark.parametrize("variant", ABLATION_VARIANTS)
    def test_full_trace_matches_reference(self, variant):
        cfg = ablation_config(tiny_config(hidden=3), variant)
        model = ScanpathModel(cfg, seed=13)
        E = random_E(cfg, seed=13)
        cells = [1, 3, 0, 2]
        gt = path_at_cells(cells, cfg, observer_id=1)
        steps = model.rollout_teacher_forced(E, 1, gt)
        ref = reference_rollout(
            {k: v.data for k, v in model.params.items()}, E, cells,
            model.one_hot(1), cfg.hidden, cfg.semantic_channels,
            enable_fi=cfg.enable_fi, enable_fp=cfg.enable_fp,
            use_u=cfg.uses_embedding, concat_onehot=cfg.uses_one_hot,
            ior_sigma=IOR_SIGMA_CELLS)
        for (m, mu, var), (m_ref, mu_ref, var_ref) in zip(steps, ref):
            np.testing.assert_allclose(m.data, m_ref, atol=1e-10)
            assert float(mu.data) == pytest.approx(mu_ref, abs=1e-10)
            assert float(var.data) == pytest.approx(var_ref, abs=1e-10)

    def test_out_of_bounds_ground_truth_rejected(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg)
        bad = Scanpath(image_id=0, observer_id=0,
                       fixations=(Fixation(1.5, 0.5, 100.0),))
        with pytest.raises(ValueError):
            model.rollout_teacher_forced(random_E(cfg), 0, bad)

    def test_too_long_ground_truth_rejected(self):
        cfg = tiny_config(max_steps=2)
        model = ScanpathModel(cfg)
        gt = path_at_cells([0, 1, 2], cfg)
        with pytest.raises(ValueError, match="max_steps"):
            model.rollout_teacher_forced(random_E(cfg), 0, gt)


class TestSampling:
    def test_argmax_deterministic(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=1)
        E = random_E(cfg, seed=1)
        a = model.sample_scanpath(E, 0, n_steps=4, mode="argmax", seed=0)
        b = model.sample_scanpath(E, 0, n_steps=4, mode="argmax", seed=99)
        assert a.fixations == b.fixations

    def test_sample_mode_seeded(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=2)
        E = random_E(cfg, seed=2)
        a = model.sample_scanpath(E, 1, n_steps=4, mode="sample", seed=7)
        b = model.sample_scanpath(E, 1, n_steps=4, mode="sample", seed=7)
        c = model.sample_scanpath(E, 1, n_steps=4, mode="sample", seed=8)
        assert a.fixations == b.fixations
        assert a.fixations != c.fixations

    def test_inhibition_of_return_blocks_revisits(self):
        # the emitted cells feed the inhibition, so with a strength far above
        # the logit spread no cell is fixated twice
        cfg = tiny_config(height=4, width=4)
        model = ScanpathModel(cfg, seed=4)
        model.params["b_ior"].data[:] = 50.0
        sp = model.sample_scanpath(random_E(cfg, seed=4), 0, n_steps=4,
                                   mode="argmax", seed=0)
        cells = [grid_cell(f.x, f.y, cfg.height, cfg.width)
                 for f in sp.fixations]
        assert len(set(cells)) == len(cells)

    def test_durations_clamped(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=3)
        model.params["b_dur"].data[0] = 20.0
        E = random_E(cfg, seed=3)
        sp = model.sample_scanpath(E, 0, n_steps=4, mode="argmax", seed=0)
        assert all(f.dur_ms <= 5000.0 for f in sp.fixations)
        model.params["b_dur"].data[0] = -20.0
        sp = model.sample_scanpath(E, 0, n_steps=4, mode="sample", seed=0)
        assert all(f.dur_ms >= 50.0 for f in sp.fixations)

    def test_invalid_mode_and_steps_rejected(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg)
        E = random_E(cfg)
        with pytest.raises(ValueError, match="mode"):
            model.sample_scanpath(E, 0, n_steps=2, mode="greedy", seed=0)
        with pytest.raises(ValueError, match="n_steps"):
            model.sample_scanpath(E, 0, n_steps=9, seed=0)

    def test_multinomial_frequencies_match_map(self):
        cfg = ablation_config(
            tiny_config(channels=1, hidden=2, semantic_channels=1,
                        observer_dim=1, n_observers=2, max_steps=1),
            "none")
        model = ScanpathModel(cfg, seed=4)
        E = random_E(cfg, seed=4)
        gt = path_at_cells([0], cfg)
        m = model.rollout_teacher_forced(E, 0, gt)[0][0].data
        n = 100_000
        counts = np.zeros(cfg.cells)
        for s in range(n):
            sp = model.sample_scanpath(E, 0, n_steps=1, mode="sample",
                                       seed=s)
            fix = sp.fixations[0]
            counts[grid_cell(fix.x, fix.y, cfg.height, cfg.width)] += 1
        freq = counts / n
        sigma = np.sqrt(m * (1.0 - m) / n)
        assert np.all(np.abs(freq - m) <= 3.0 * sigma + 1e-12)


def max_rel_err(a, b) -> float:
    """Largest difference of two arrays relative to the larger of them."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


class TestBatchAxis:
    # a batch is B observers on one image, recorded as one pass of the step
    # core; it must stand for the mean of B single-item passes

    @staticmethod
    def items(cfg, lengths):
        return [(obs, path_at_cells([(5 * t + 3 * obs) % cfg.cells
                                     for t in range(n)], cfg,
                                    dur=150.0 + 40 * obs + 7 * n,
                                    observer_id=obs))
                for obs, n in enumerate(lengths)]

    @staticmethod
    def loss_and_grads(model, loss_fn):
        with Tape() as tape:
            total = loss_fn()
        grads = tape.gradients(total)
        return float(total.data), {name: grads[p]
                                   for name, p in model.params.items()}

    @pytest.mark.parametrize("lengths", [(4, 4, 4), (4, 2, 4)],
                             ids=["one-length", "ragged"])
    @pytest.mark.parametrize("variant", ABLATION_VARIANTS)
    def test_batch_matches_mean_of_single_items(self, variant, lengths):
        # a batch holds one length: items of mixed lengths are refused, and
        # the batch of each length stands for the mean of its items
        cfg = ablation_config(tiny_config(), variant)
        model = ScanpathModel(cfg, seed=21)
        E = random_E(cfg, seed=21)
        items = self.items(cfg, lengths)
        if len(set(lengths)) > 1:
            with pytest.raises(ValueError, match=r"lengths \[2, 4\]$"):
                batch_loss(model, E, items)
        for n in sorted(set(lengths)):
            group = [(obs, gt) for obs, gt in items if len(gt) == n]
            batch, batch_grads = self.loss_and_grads(
                model, lambda: batch_loss(model, E, group)[0])
            singles = [self.loss_and_grads(
                model, lambda obs=obs, gt=gt: rollout_loss(model, E, obs,
                                                           gt)[0])
                for obs, gt in group]
            mean = sum(loss for loss, _ in singles) / len(group)
            assert abs(batch - mean) <= 1e-10 * abs(mean)
            for name, grad in batch_grads.items():
                expect = sum(g[name] for _, g in singles) / len(group)
                assert max_rel_err(grad, expect) <= 1e-10, name

    @pytest.mark.parametrize("variant", ABLATION_VARIANTS)
    def test_batch_records_as_many_nodes_as_one_item(self, variant):
        cfg = ablation_config(tiny_config(), variant)
        model = ScanpathModel(cfg, seed=22)
        E = random_E(cfg, seed=22)
        counts = []
        for size in (1, 2, 3):
            with Tape() as tape:
                batch_loss(model, E, self.items(cfg, [4] * size))
            counts.append(len(tape.nodes))
        assert counts[0] == counts[1] == counts[2], counts

    def test_default_full_model_batch_records_82_ops_on_24_leaves(self):
        # the tape the README states: a default full-model training batch
        # records 82 op nodes, and its leaves are the model's 24 parameters
        cfg = ModelConfig()
        model = ScanpathModel(cfg, seed=0)
        items = self.items(cfg, [cfg.max_steps] * TrainConfig().batch_size)
        with Tape() as tape:
            batch_loss(model, random_E(cfg), items)
        leaves = sum(node.op == "leaf" for node in tape.nodes)
        assert (len(tape.nodes) - leaves, leaves) == (82, 24)
        assert len(model.params) == 24

    @pytest.mark.parametrize("mode", ["argmax", "sample"])
    @pytest.mark.parametrize("variant", ABLATION_VARIANTS)
    def test_shared_rollout_matches_one_rollout_per_observer(self, variant,
                                                             mode):
        cfg = ablation_config(tiny_config(height=3, width=3), variant)
        model = ScanpathModel(cfg, seed=23)
        E = random_E(cfg, seed=23)
        observers = [2, 0, 1]
        seeds = [[5, obs] for obs in observers]
        shared = model.sample_scanpaths([E], observers, seeds, n_steps=4,
                                        mode=mode, image_ids=[7])
        for obs, seed, path in zip(observers, seeds, shared):
            alone = model.sample_scanpath(E, obs, n_steps=4, mode=mode,
                                          seed=seed, image_id=7)
            assert (path.image_id, path.observer_id) == (7, obs)
            np.testing.assert_array_equal(path.xy(), alone.xy())
            np.testing.assert_allclose(
                [f.dur_ms for f in path.fixations],
                [f.dur_ms for f in alone.fixations], rtol=1e-12, atol=0)

    def test_mismatched_batch_rejected(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg)
        E = random_E(cfg)
        # a pass takes (T, B) cells, so its B scanpaths share one length
        with pytest.raises(ValueError, match="one observer per"):
            model.teacher_forced_batch(E, [0], np.zeros((3, 2), dtype=int))
        with pytest.raises(ValueError, match="max_steps"):
            model.teacher_forced_batch(E, [0], np.zeros((5, 1), dtype=int))
        with pytest.raises(ValueError, match="seeds"):
            model.sample_scanpaths([E], [0, 1], [0], n_steps=2)
        with pytest.raises(ValueError, match="seeds"):
            model.sample_scanpaths([E, E], [0, 1], [0, 1], n_steps=2)
        with pytest.raises(ValueError, match="image ids"):
            model.sample_scanpaths([E, E], [0], [0, 1], n_steps=2,
                                   image_ids=[3])


class TestInvariants:
    @pytest.mark.parametrize("variant", ABLATION_VARIANTS)
    def test_emitted_maps_are_simplexes(self, variant):
        cfg = ablation_config(tiny_config(), variant)
        for seed in range(5):
            model = ScanpathModel(cfg, seed=seed)
            E = random_E(cfg, seed=seed)
            gt = path_at_cells([0, 2, 1], cfg)
            m0 = model.initial_map().data
            assert m0.min() >= 0 and abs(m0.sum() - 1) < 1e-6
            for m, _, var in model.rollout_teacher_forced(E, 0, gt):
                assert m.data.min() >= 0
                assert abs(m.data.sum() - 1) < 1e-6
                assert float(var.data) > 0

    def test_guided_map_separates_observers(self):
        cfg = tiny_config()
        model = ScanpathModel(cfg, seed=5)
        E_flat = model.features(random_E(cfg, seed=5))
        maps = [model.observer_guidance(E_flat,
                                        model.encode_observers([i])).data
                for i in range(cfg.n_observers)]
        assert np.max(np.abs(maps[0] - maps[1])) > 0.0

    def test_agnostic_predictions_identical_across_observers(self):
        cfg = ablation_config(tiny_config(), "none")
        model = ScanpathModel(cfg, seed=6)
        E = random_E(cfg, seed=6)
        paths = [model.sample_scanpath(E, i, n_steps=3, mode="argmax",
                                       seed=0)
                 for i in range(cfg.n_observers)]
        assert paths[0].fixations == paths[1].fixations == paths[2].fixations

    def test_full_model_gradient_check(self):
        cfg = ModelConfig(n_observers=2, height=4, width=4, channels=3,
                          observer_dim=3, hidden=4, semantic_channels=2,
                          max_steps=3)
        model = ScanpathModel(cfg, seed=0)
        E = np.random.default_rng(0).uniform(0.1, 1.0, (3, 4, 4))
        gt = path_at_cells([5, 10, 3], cfg, observer_id=1)

        def f():
            total, _, _ = rollout_loss(model, E, 1, gt)
            return total

        report = grad_check(f, model.params, eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err

    # rollout_loss records a scanpath in one pass of the step core: only
    # the concat of the fed-back maps joins past the first step, and the
    # count is flat from two steps on. Recording any pathway per step again
    # adds several nodes a step and breaks this budget.
    NODES_PER_EXTRA_STEP = 1

    @pytest.mark.parametrize("variant", ABLATION_VARIANTS)
    def test_tape_nodes_do_not_grow_with_length(self, variant):
        cfg = ablation_config(tiny_config(max_steps=8), variant)
        model = ScanpathModel(cfg, seed=3)
        E = random_E(cfg, seed=3)
        counts = []
        for length in range(1, 9):
            gt = path_at_cells([3 * t % cfg.cells for t in range(length)], cfg)
            with Tape() as tape:
                rollout_loss(model, E, 0, gt)
            counts.append(len(tape.nodes))
        for extra, count in enumerate(counts):
            assert count - counts[0] <= self.NODES_PER_EXTRA_STEP * extra, \
                counts

    EXPECTED_REACHABLE = {
        "none": {"m0_logits", "W_fi", "b_fi", "W_ih", "W_hh", "b_lstm",
                 "W_fp", "b_fp", "W_dur", "b_dur"},
        "OE": {"m0_logits", "W_fi", "b_fi", "W_ih", "W_hh", "b_lstm",
               "W_fp", "b_fp", "W_dur", "b_dur"},
        "OE+FI": {"m0_logits", "W_u", "W_eu", "W_mu", "w_eu", "W_hs",
                  "b_hs", "W_us", "W_hc", "b_hc", "W_uc", "W_ih", "W_hh",
                  "b_lstm", "W_fp", "b_fp", "W_dur", "b_dur"},
        "OE+FP": {"m0_logits", "W_u", "W_fi", "b_fi", "W_ih", "W_hh",
                  "b_lstm", "W_a", "b_a", "W_q", "b_q", "W_b", "W_um",
                  "w_b", "b_ior", "W_dur", "b_dur"},
        "OE+FI+FP": {"m0_logits", "W_u", "W_eu", "W_mu", "w_eu", "W_hs",
                     "b_hs", "W_us", "W_hc", "b_hc", "W_uc", "W_ih",
                     "W_hh", "b_lstm", "W_a", "b_a", "W_q", "b_q", "W_b",
                     "W_um", "w_b", "b_ior", "W_dur", "b_dur"},
        "one_hot": {"m0_logits", "W_fi", "b_fi", "W_ih", "W_hh", "b_lstm",
                    "W_fp", "b_fp", "W_dur", "b_dur"},
    }

    @pytest.mark.parametrize("variant", ABLATION_VARIANTS)
    def test_parameter_reachability(self, variant):
        # a variant holds exactly the parameters that reach its loss
        cfg = ablation_config(tiny_config(), variant)
        model = ScanpathModel(cfg, seed=7)
        assert set(model.params) == self.EXPECTED_REACHABLE[variant]
        assert set(param_shapes(cfg)) == self.EXPECTED_REACHABLE[variant]
        E = random_E(cfg, seed=7)
        gt = path_at_cells([0, 3, 2], cfg, observer_id=2)
        with Tape() as tape:
            total, _, _ = rollout_loss(model, E, 2, gt)
        grads = tape.gradients(total)
        names = {name for name, p in model.params.items()
                 if p in grads}
        assert names == self.EXPECTED_REACHABLE[variant]

    def test_initial_values_do_not_depend_on_other_parameters(self):
        # one_hot's wider W_ih, or the pathways a variant leaves out, must
        # not move the draws of the parameters the variants share
        drawn = {v: init_params(ablation_config(tiny_config(), v), seed=3)
                 for v in ABLATION_VARIANTS}
        for a in ABLATION_VARIANTS:
            for b in ABLATION_VARIANTS:
                for name in drawn[a].keys() & drawn[b].keys():
                    x, y = drawn[a][name].data, drawn[b][name].data
                    if x.shape == y.shape:
                        np.testing.assert_array_equal(x, y, err_msg=name)

    def test_initial_scales_follow_fan_in(self):
        cfg = ModelConfig()
        c, d, h = cfg.channels, cfg.observer_dim, cfg.hidden
        hw, ell = cfg.cells, cfg.semantic_channels
        expected = {
            "W_u": 0.01, "W_eu": c ** -0.5, "W_mu": d ** -0.5,
            "w_eu": h ** -0.5, "W_hs": hw ** -0.5, "W_us": d ** -0.5,
            "W_hc": (2 * c) ** -0.5, "W_uc": d ** -0.5, "W_fi": c ** -0.5,
            "W_ih": h ** -0.5, "W_hh": h ** -0.5, "W_a": (ell / h) ** 0.5,
            "W_b": c ** -0.5, "W_um": d ** -0.5, "w_b": h ** -0.5,
            "W_fp": h ** -0.5, "W_dur": h ** -0.5, "W_q": h ** -0.5,
        }
        params = {**init_params(ablation_config(cfg, "none"), seed=1),
                  **init_params(cfg, seed=1)}
        for name, std in expected.items():
            assert params[name].data.std() == pytest.approx(std, rel=0.25), \
                name
        for name in set(params) - set(expected) - {"b_lstm", "b_dur"}:
            assert not params[name].data.any(), name
        np.testing.assert_array_equal(params["b_dur"].data,
                                      [np.log(300.0), 0.0])
        b_lstm = params["b_lstm"].data
        np.testing.assert_array_equal(b_lstm[h:2 * h], 1.0)
        assert not b_lstm[:h].any() and not b_lstm[2 * h:].any()
