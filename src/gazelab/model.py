"""Observer-conditioned scanpath model.

A recurrent decoder watches a C-channel feature grid E and emits, per step,
a spatial probability map over grid cells plus Gaussian parameters for the
log fixation duration. Observer identity can enter three ways:

* ``embedding`` mode: a learned code u = W_u @ one_hot modulates the
  guidance map and the feature fusion vectors (FI) and the semantic-map
  weights (FP). It enters nowhere else, so with FI and FP both off the code
  reaches no output and the "OE" ablation row trains the same model as
  "none".
* ``one_hot_concat`` mode: the raw one-hot identity is appended to the
  decoder input and the embedding pathways are left out.
* OE disabled: a single observer-agnostic decoder.

Feature integration (FI) and fixation prioritization (FP) are separately
toggleable; each disabled path is replaced by a small learned projection so
ablation rows stay trainable. FP builds its semantic maps from the scene's
feature channels and inhibits the cells already fixated. All forward math
runs on the in-house tensor engine, so the same code path serves training
(under a tape) and inference. Grid cells follow ``scanpath.grid_cell``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .scanpath import Fixation, Scanpath, cell_center, grid_cell
from .tensor import (
    Tensor,
    concat,
    lstm,
    mean,
    narrow,
    pick,
    relu,
    reshape,
    softmax,
    softplus,
    tanh,
    transpose,
    tsum,
)

OBSERVER_MODES = ("embedding", "one_hot_concat")

DUR_CLAMP_MS = (50.0, 5000.0)
VAR_FLOOR = 1e-4
# a hundredth of the unit scale the codes reach in training: fresh codes
# differ, but too little for the network to learn to read them
EMBEDDING_INIT_SCALE = 0.01
# inhibition spreads over the adjacent cells too (at exp(-1/2)), so a
# revisit one cell away is discouraged along with the fixated cell itself
IOR_SIGMA_CELLS = 1.0


@dataclass
class ModelConfig:
    """Architecture extents and pathway toggles."""

    n_observers: int = 8
    height: int = 16
    width: int = 16
    channels: int = 12
    observer_dim: int = 16
    hidden: int = 64
    semantic_channels: int = 4
    max_steps: int = 8
    enable_oe: bool = True
    enable_fi: bool = True
    enable_fp: bool = True
    observer_mode: str = "embedding"

    def __post_init__(self):
        for name in (
            "n_observers",
            "height",
            "width",
            "channels",
            "observer_dim",
            "hidden",
            "semantic_channels",
            "max_steps",
        ):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.observer_mode not in OBSERVER_MODES:
            raise ValueError(f"observer_mode must be one of {OBSERVER_MODES}")
        if (self.enable_fi or self.enable_fp) and not self.enable_oe:
            raise ValueError("feature integration and prioritization require "
                             "observer encoding")

    @property
    def cells(self) -> int:
        return self.height * self.width

    @property
    def decoder_in_dim(self) -> int:
        extra = self.n_observers if self.uses_one_hot else 0
        return self.hidden + extra

    @property
    def uses_embedding(self) -> bool:
        return self.enable_oe and self.observer_mode == "embedding"

    @property
    def uses_one_hot(self) -> bool:
        return self.enable_oe and self.observer_mode == "one_hot_concat"


@dataclass
class DecoderState:
    """LSTM carry [hidden, cell] (length 2h) plus the step counter guarding
    against overruns."""

    carry: Tensor
    t: int = 0


def inhibition_kernel(height: int, width: int) -> np.ndarray:
    """(HW, HW) Gaussian over cell distance with sigma IOR_SIGMA_CELLS.

    Entry [i, j] is how strongly a fixation at cell j inhibits cell i.
    """
    rows, cols = np.divmod(np.arange(height * width), width)
    d2 = ((rows[:, None] - rows[None, :]) ** 2
          + (cols[:, None] - cols[None, :]) ** 2)
    return np.exp(-d2 / (2.0 * IOR_SIGMA_CELLS ** 2))


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Fresh trainable parameter set.

    Weight matrices use scale 1/sqrt(fan_in), and the attention bank W_a is
    widened by sqrt(semantic_channels) to keep the mixed priority logits at
    the same scale as the single-map head. The observer embedding W_u starts
    at scale EMBEDDING_INIT_SCALE, far below the spread training gives the
    codes: every observer starts from nearly the same code, so the
    differences between codes are learned from each observer's gaze rather
    than drawn at random and then read back by the rest of the network.
    Biases start at zero except the LSTM forget gate (1.0) and the duration
    mean (log 300 ms).
    """
    rng = np.random.default_rng([int(seed), 7])
    c = config.channels
    d = config.observer_dim
    h = config.hidden
    hw = config.cells
    ell = config.semantic_channels

    def mat(shape, fan_in):
        data = rng.normal(0.0, 1.0 / np.sqrt(fan_in), shape)
        return Tensor(data, trainable=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), trainable=True)

    params = {
        "W_u": Tensor(rng.normal(0.0, EMBEDDING_INIT_SCALE,
                                 (d, config.n_observers)), trainable=True),
        "W_eu": mat((h, c), c),
        "W_mu": mat((h, d), d),
        "w_eu": mat((h,), h),
        "m0_logits": zeros(hw),
        "W_hs": mat((hw, hw), hw),
        "b_hs": zeros(hw),
        "W_us": mat((hw, d), d),
        "W_hc": mat((h, 2 * c), 2 * c),
        "b_hc": zeros(h),
        "W_uc": mat((h, d), d),
        "W_fi": mat((c, h), c),
        "b_fi": zeros(h),
        "W_ih": mat((4 * h, config.decoder_in_dim), config.decoder_in_dim),
        "W_hh": mat((4 * h, h), h),
        "b_lstm": zeros(4 * h),
        # the priority head mixes the ell attention maps convexly, which
        # shrinks logit variance by ell under a near-uniform mixture; the
        # sqrt(ell) factor restores parity with the single-map head W_fp
        "W_a": Tensor(rng.normal(0.0, np.sqrt(ell / h), (ell * hw, h)),
                      trainable=True),
        "b_a": zeros(ell * hw),
        "W_b": mat((h, c), c),
        "W_um": mat((h, d), d),
        "w_b": mat((h,), h),
        "W_fp": mat((hw, h), h),
        "b_fp": zeros(hw),
        "W_dur": mat((2, h), h),
        "b_dur": Tensor(np.array([np.log(300.0), 0.0]), trainable=True),
    }
    params["b_lstm"].data[h:2 * h] = 1.0
    params["W_q"] = mat((ell * c, h), h)
    params["b_q"] = zeros(ell * c)
    params["b_ior"] = zeros(1)
    return params


class ScanpathModel:
    """Parameter set bound to a configuration.

    Instances are read-only during inference, so concurrent rollouts are
    safe; training mutates the parameters and must stay single-threaded
    per instance.
    """

    def __init__(self, config: ModelConfig, seed: int = 0,
                 params: dict[str, Tensor] | None = None):
        self.config = config
        self.params = init_params(config, seed) if params is None else params
        self.inhibition = (inhibition_kernel(config.height, config.width)
                           if config.enable_fp else None)

    # -- observer pathway ------------------------------------------------

    def one_hot(self, observer_id: int) -> np.ndarray:
        n = self.config.n_observers
        if not 0 <= int(observer_id) < n:
            raise IndexError(
                f"observer id {observer_id} out of range for {n} observers")
        vec = np.zeros(n)
        vec[int(observer_id)] = 1.0
        return vec

    def encode_observer(self, observer_id: int) -> Tensor:
        """Observer code u = W_u @ one_hot; zero vector when OE is off."""
        one_hot = self.one_hot(observer_id)
        if not self.config.uses_embedding:
            return Tensor(np.zeros(self.config.observer_dim))
        return self.params["W_u"] @ Tensor(one_hot)

    def _code(self, observer_id: int) -> Tensor | None:
        """Embedding for internal use; None when the pathway is off."""
        if not self.config.uses_embedding:
            self.one_hot(observer_id)
            return None
        return self.encode_observer(observer_id)

    # -- forward pieces --------------------------------------------------
    #
    # Each pathway takes a leading step axis of T rows. Under teacher
    # forcing every input that does not depend on the hidden state is known
    # before the first step, so one call covers the whole scanpath; the
    # free-running rollout calls the same code with T = 1.

    def features(self, E: np.ndarray) -> Tensor:
        """Constant (HW, C) view of a (C, H, W) feature stack."""
        cfg = self.config
        if E.shape != (cfg.channels, cfg.height, cfg.width):
            raise ValueError(
                f"feature stack shape {E.shape} does not match config "
                f"({cfg.channels}, {cfg.height}, {cfg.width})")
        return Tensor(np.ascontiguousarray(E.reshape(cfg.channels, -1).T))

    def observer_guidance(self, E_flat: Tensor, u: Tensor | None) -> Tensor:
        """Length-HW probability map of observer-salient locations.

        It does not depend on the step, so a rollout computes it once.
        """
        scores = E_flat @ transpose(self.params["W_eu"])
        if u is not None:
            scores = scores + self.params["W_mu"] @ u
        return softmax(tanh(scores) @ self.params["w_eu"])

    def integrate_features(self, E_flat: Tensor, maps: Tensor,
                           m_u: Tensor | None, u: Tensor | None) -> Tensor:
        """(T, h) decoder input: row t is the fused map R_t pooled over space.

        ``maps`` (T, HW) holds the map fed back into each step and ``m_u``
        the guidance map. The fixated stacks are X_t = E * m_t and
        X_u = E * m_u (each row of E scaled by the map).

        FI on: R_t = outer(u_s, u_c), where u_s comes from the channel mean
        of [X_t, X_u], u_c from their spatial mean, and each is shifted by
        a projection of u. Only the pooled mean(u_s) * u_c is returned; the
        channel mean is (m_t + m_u) * rowsum(E) / 2C and the spatial mean
        [m_t @ E, m_u @ E] / HW, so neither the stacks nor the (HW, h)
        product is built. FI off: R_t = X_t @ W_fi + b_fi, which pools to
        (m_t @ E / HW) @ W_fi + b_fi.
        """
        cfg = self.config
        p = self.params
        steps = maps.shape[0]
        glimpse = (maps @ E_flat) * (1.0 / cfg.cells)
        if not cfg.enable_fi:
            return glimpse @ p["W_fi"] + p["b_fi"]
        rowsum = Tensor(E_flat.data.sum(axis=1) * (0.5 / cfg.channels))
        spatial = (maps + m_u) * rowsum
        u_s = relu(spatial @ transpose(p["W_hs"]) + p["b_hs"])
        guided = Tensor(np.ones((steps, 1))) * (m_u @ E_flat)
        pooled = concat([glimpse, guided * (1.0 / cfg.cells)], axis=1)
        u_c = relu(pooled @ transpose(p["W_hc"]) + p["b_hc"])
        if u is not None:
            u_s = u_s + p["W_us"] @ u
            u_c = u_c + p["W_uc"] @ u
        return reshape(mean(u_s, axis=1), (steps, 1)) * u_c

    def initial_state(self) -> DecoderState:
        return DecoderState(Tensor(np.zeros(2 * self.config.hidden)), 0)

    def decoder_step(self, X: Tensor, state: DecoderState,
                     observer_id: int) -> tuple[DecoderState, Tensor]:
        """LSTM over the T rows of X from ``state``.

        Returns the state after the last row and the (T, h) hidden states.
        All T input projections are one matmul; the recurrence is one
        ``lstm`` node.
        """
        cfg = self.config
        steps = X.shape[0]
        if state.t + steps > cfg.max_steps:
            raise ValueError(
                f"decoder step {state.t + steps - 1} would exceed max_steps "
                f"{cfg.max_steps}")
        p = self.params
        if cfg.uses_one_hot:
            identity = np.tile(self.one_hot(observer_id), (steps, 1))
            X = concat([X, Tensor(identity)], axis=1)
        Z = X @ transpose(p["W_ih"]) + p["b_lstm"]
        seq = lstm(Z, p["W_hh"], state.carry)
        h = cfg.hidden
        carry = reshape(narrow(seq, 0, steps - 1, 1), (2 * h,))
        return DecoderState(carry, state.t + steps), narrow(seq, 1, 0, h)

    def prioritize_fixation(self, E_flat: Tensor, H: Tensor,
                            u: Tensor | None,
                            visited: np.ndarray | None = None
                            ) -> tuple[Tensor, Tensor, Tensor]:
        """(T, HW) next-fixation logits with the map weights and descriptors.

        FP on: semantic map l of step t is the spatial map A_t[l] read from
        the hidden state h_t by W_a, plus this scene's feature channels
        weighted by a hidden-state query, S[l] = A_t[l] + E q_l with
        q = W_q @ h_t + b_q, so the maps follow the image. Per-map
        descriptors V[l] = mean over space of E gated by S[l], softmax
        weights beta over maps, and the logits are the beta-weighted sum of
        the maps. ``visited`` (T, HW) counts the fixations made before each
        step per cell; spread by inhibition_kernel and scaled by the learned
        strength softplus(b_ior), it is subtracted from the logits
        (inhibition of return). Returns the logits, beta (T, L) and V
        (T * L, C). FP off: a hidden-state projection, with beta a point
        mass (T, 1) and V zeros (T, C).
        """
        cfg = self.config
        p = self.params
        steps = H.shape[0]
        if not cfg.enable_fp:
            logits = H @ transpose(p["W_fp"]) + p["b_fp"]
            return (logits, Tensor(np.ones((steps, 1))),
                    Tensor(np.zeros((steps, cfg.channels))))
        n = steps * cfg.semantic_channels
        A = reshape(H @ transpose(p["W_a"]) + p["b_a"], (n, cfg.cells))
        queries = reshape(H @ transpose(p["W_q"]) + p["b_q"],
                          (n, cfg.channels))
        S = A + queries @ transpose(E_flat)
        V = (S @ E_flat) * (1.0 / cfg.cells)
        scores = V @ transpose(p["W_b"])
        if u is not None:
            scores = scores + p["W_um"] @ u
        beta = softmax(reshape(tanh(scores) @ p["w_b"],
                               (steps, cfg.semantic_channels)), axis=1)
        weighted = reshape(beta, (n, 1)) * S
        logits = tsum(reshape(weighted, (steps, cfg.semantic_channels,
                                         cfg.cells)), axis=1)
        if visited is not None:
            logits = logits - softplus(p["b_ior"]) * Tensor(
                visited @ self.inhibition)
        return logits, beta, V

    def duration_head(self, H: Tensor) -> tuple[Tensor, Tensor]:
        """Gaussian parameters (mu, var), each length T, of the log
        duration in ms."""
        steps = H.shape[0]
        v = H @ transpose(self.params["W_dur"]) + self.params["b_dur"]
        mu = reshape(narrow(v, 1, 0, 1), (steps,))
        var = softplus(reshape(narrow(v, 1, 1, 1), (steps,))) + VAR_FLOOR
        return mu, var

    def initial_map(self) -> Tensor:
        return softmax(self.params["m0_logits"])

    # -- rollouts --------------------------------------------------------

    def _context(self, E: np.ndarray, observer_id: int):
        """Per-rollout constants: (E_flat, u, m_u)."""
        u = self._code(observer_id)
        E_flat = self.features(E)
        m_u = (self.observer_guidance(E_flat, u)
               if self.config.enable_fi else None)
        return E_flat, u, m_u

    def _steps(self, context, maps: Tensor, visited: np.ndarray,
               state: DecoderState, observer_id: int):
        """The step core shared by both rollouts, over the T rows of maps.

        Returns (state, logits (T, HW), mu (T,), var (T,)).
        """
        E_flat, u, m_u = context
        X = self.integrate_features(E_flat, maps, m_u, u)
        state, H = self.decoder_step(X, state, observer_id)
        logits, _, _ = self.prioritize_fixation(E_flat, H, u, visited)
        mu, var = self.duration_head(H)
        return state, logits, mu, var

    def teacher_forced(self, E: np.ndarray, observer_id: int,
                       gt: Scanpath) -> tuple[Tensor, Tensor, Tensor]:
        """Stacked (logits (T, HW), mu (T,), var (T,)) with ground-truth
        feedback, from one pass of the step core.

        Step t sees the one-hot map of the ground-truth fixation t-1 (the
        learned initial map at t=0), and the fixations before t feed the
        inhibition of return, so the outputs at step t depend only on
        fixations before t.
        """
        cfg = self.config
        if len(gt) > cfg.max_steps:
            raise ValueError(
                f"ground truth length {len(gt)} exceeds max_steps "
                f"{cfg.max_steps}")
        gt.validate()
        context = self._context(E, observer_id)
        steps = len(gt)
        forced = np.zeros((steps, cfg.cells))
        forced[np.arange(steps),
               [grid_cell(f.x, f.y, cfg.height, cfg.width)
                for f in gt.fixations]] = 1.0
        maps = reshape(self.initial_map(), (1, cfg.cells))
        if steps > 1:
            maps = concat([maps, Tensor(forced[:-1])], axis=0)
        visited = np.cumsum(forced, axis=0) - forced
        _, logits, mu, var = self._steps(context, maps, visited,
                                         self.initial_state(), observer_id)
        return logits, mu, var

    def rollout_teacher_forced(self, E: np.ndarray, observer_id: int,
                               gt: Scanpath) -> list[tuple[Tensor, Tensor, Tensor]]:
        """Per-step (m_t, mu_t, var_t) of ``teacher_forced``, m_t the
        length-HW softmax map."""
        logits, mu, var = self.teacher_forced(E, observer_id, gt)
        maps = softmax(logits, axis=1)
        cells = self.config.cells
        return [(reshape(narrow(maps, 0, t, 1), (cells,)), pick(mu, t),
                 pick(var, t)) for t in range(len(gt))]

    def sample_scanpath(self, E: np.ndarray, observer_id: int,
                        n_steps: int | None = None, mode: str = "argmax",
                        seed=0, image_id: int = -1) -> Scanpath:
        """Free-running rollout feeding back its own soft maps.

        Each step is one pass of the step core with T = 1 from the carried
        state. The cells it fixates, not the soft maps, feed the inhibition
        of return, as the ground-truth cells do under teacher forcing.

        ``argmax`` picks the modal cell and the median duration exp(mu);
        ``sample`` draws the cell from m_t and the duration log-normally,
        both from the given seed. Durations are clamped to [50, 5000] ms.
        """
        cfg = self.config
        steps = cfg.max_steps if n_steps is None else int(n_steps)
        if not 1 <= steps <= cfg.max_steps:
            raise ValueError(
                f"n_steps {steps} outside [1, {cfg.max_steps}]")
        if mode not in ("argmax", "sample"):
            raise ValueError("mode must be 'argmax' or 'sample'")
        rng = np.random.default_rng(seed)
        context = self._context(E, observer_id)
        state = self.initial_state()
        m_prev = reshape(self.initial_map(), (1, cfg.cells))
        visited = np.zeros((1, cfg.cells))
        fixations = []
        for _ in range(steps):
            state, logits, mu, var = self._steps(context, m_prev, visited,
                                                 state, observer_id)
            m_prev = softmax(logits, axis=1)
            prob = m_prev.data[0]
            if mode == "argmax":
                cell = int(np.argmax(prob))
                log_dur = float(mu.data[0])
            else:
                cell = int(rng.choice(prob.size, p=prob / prob.sum()))
                log_dur = float(rng.normal(mu.data[0],
                                           np.sqrt(var.data[0])))
            dur = float(np.clip(np.exp(log_dur), *DUR_CLAMP_MS))
            x, y = cell_center(cell, cfg.height, cfg.width)
            fixations.append(Fixation(x, y, dur))
            visited[0, cell] += 1.0
        return Scanpath(image_id=image_id, observer_id=int(observer_id),
                        fixations=tuple(fixations))


def ablation_config(base: ModelConfig, variant: str) -> ModelConfig:
    """Config for one row of the incremental ablation table.

    The observer code is read only by FI and FP, so the "OE" row (both off)
    trains the same model as "none"; its embedding is carried for the
    incremental table, not used.
    """
    table = {
        "none": dict(enable_oe=False, enable_fi=False, enable_fp=False),
        "OE": dict(enable_oe=True, enable_fi=False, enable_fp=False),
        "OE+FI": dict(enable_oe=True, enable_fi=True, enable_fp=False),
        "OE+FP": dict(enable_oe=True, enable_fi=False, enable_fp=True),
        "OE+FI+FP": dict(enable_oe=True, enable_fi=True, enable_fp=True),
        "one_hot": dict(enable_oe=True, enable_fi=False, enable_fp=False,
                        observer_mode="one_hot_concat"),
    }
    if variant not in table:
        raise ValueError(f"unknown variant {variant!r}; "
                         f"choose from {sorted(table)}")
    changes = dict(observer_mode="embedding")
    changes.update(table[variant])
    return replace(base, **changes)


ABLATION_VARIANTS = ("none", "OE", "OE+FI", "OE+FP", "OE+FI+FP", "one_hot")
