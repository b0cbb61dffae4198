"""Observer-conditioned scanpath model.

A recurrent decoder watches a C-channel feature grid E and emits, per step,
a spatial probability map over grid cells plus Gaussian parameters for the
log fixation duration. Three switches decide the model: ``observer_mode``,
``enable_fi`` and ``enable_fp``, eight settings for eight distinct models.
Observer identity enters in one of two ways:

* ``embedding`` mode: a learned code u = W_u @ one_hot modulates the
  guidance map and the feature fusion vectors (FI) and the semantic-map
  weights (FP). It enters nowhere else, so with FI and FP both off the
  model holds no code: that is the observer-agnostic model, and the "none"
  and "OE" ablation rows share its config.
* ``one_hot_concat`` mode: the raw one-hot identity is appended to the
  decoder input and the embedding pathways are left out.

Feature integration (FI) and fixation prioritization (FP) are separately
toggleable; each disabled path is replaced by a small learned projection so
ablation rows stay trainable, and a model holds only the parameters its
pathways read. FP builds its semantic maps from the scene's feature
channels and inhibits the cells already fixated. All forward math runs on
the in-house tensor engine, so the same code path serves training (under a
tape) and inference. Its rows are B observers on each of G images: a
training batch is one image's B scanpaths recorded in one pass, and every
observer on every image of a split is predicted in one free-running
rollout of G * B rows. Grid cells follow ``scanpath.grid_cells``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .scanpath import (DUR_CLAMP_MS, Fixation, Scanpath, cell_centers,
                       grid_cells, read_fixations)
from .scanpath import cell_center, grid_cell  # noqa: F401  (perfbench imports both from here)
from .tensor import (
    Tensor,
    concat,
    linear,
    lstm,
    mean,
    narrow,
    relu,
    reshape,
    softmax,
    softplus,
    tanh,
    tsum,
)

OBSERVER_MODES = ("embedding", "one_hot_concat")

VAR_FLOOR = 1e-4
# a hundredth of the unit scale the codes reach in training: fresh codes
# differ, but too little for the network to learn to read them
EMBEDDING_INIT_SCALE = 0.01
# inhibition spreads over the adjacent cells too (at exp(-1/2)), so a
# revisit one cell away is discouraged along with the fixated cell itself
IOR_SIGMA_CELLS = 1.0
# the most parameter values a model may hold: 2**25 float64 values are 256 MiB,
# and training keeps three more of that size: the gradients and Adam's moments
MAX_PARAM_VALUES = 1 << 25


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
        size = sum(math.prod(shape) for shape in param_shapes(self).values())
        if size > MAX_PARAM_VALUES:
            raise ValueError(f"{self} holds {size} parameter values, more than "
                             f"{MAX_PARAM_VALUES}")

    @property
    def cells(self) -> int:
        return self.height * self.width

    @property
    def decoder_in_dim(self) -> int:
        extra = self.n_observers if self.uses_one_hot else 0
        return self.hidden + extra

    @property
    def uses_embedding(self) -> bool:
        """Whether a pathway reads the observer code W_u @ one_hot."""
        return (self.observer_mode == "embedding"
                and (self.enable_fi or self.enable_fp))

    @property
    def uses_one_hot(self) -> bool:
        return self.observer_mode == "one_hot_concat"


@dataclass
class DecoderState:
    """LSTM carries (G * B, 2h), row g * B + b = [hidden, cell] of observer
    b on image g, plus the step counter guarding against overruns."""

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


# Every parameter name. A parameter's index keys its random stream, so a new
# name goes at the end and the others keep their initial values.
PARAM_NAMES = ("W_u", "W_eu", "W_mu", "w_eu", "m0_logits", "W_hs", "b_hs",
               "W_us", "W_hc", "b_hc", "W_uc", "W_fi", "b_fi", "W_ih", "W_hh",
               "b_lstm", "W_a", "b_a", "W_b", "W_um", "w_b", "W_fp", "b_fp",
               "W_dur", "b_dur", "W_q", "b_q", "b_ior")


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of each parameter the config's pathways read, in PARAM_NAMES
    order. A pathway that is off holds none of its parameters."""
    c = config.channels
    d = config.observer_dim
    h = config.hidden
    hw = config.cells
    ell = config.semantic_channels
    shapes = {"m0_logits": (hw,), "W_ih": (4 * h, config.decoder_in_dim),
              "W_hh": (4 * h, h), "b_lstm": (4 * h,), "W_dur": (2, h),
              "b_dur": (2,)}
    code = (d, config.n_observers) if config.uses_embedding else None
    if config.enable_fi:
        shapes.update(W_eu=(h, c), w_eu=(h,), W_hs=(hw, hw), b_hs=(hw,),
                      W_hc=(h, 2 * c), b_hc=(h,))
        if code:
            shapes.update(W_u=code, W_mu=(h, d), W_us=(hw, d), W_uc=(h, d))
    else:
        shapes.update(W_fi=(c, h), b_fi=(h,))
    if config.enable_fp:
        shapes.update(W_a=(ell * hw, h), b_a=(ell * hw,), W_b=(h, c),
                      w_b=(h,), W_q=(ell * c, h), b_q=(ell * c,), b_ior=(1,))
        if code:
            shapes.update(W_u=code, W_um=(h, d))
    else:
        shapes.update(W_fp=(hw, h), b_fp=(hw,))
    return {name: shapes[name] for name in PARAM_NAMES if name in shapes}


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Fresh trainable parameters, one per ``param_shapes`` entry, each
    drawn from its own stream (see PARAM_NAMES).

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
    scales = {
        "W_u": EMBEDDING_INIT_SCALE,
        # the priority head mixes the ell attention maps convexly, which
        # shrinks logit variance by ell under a near-uniform mixture; the
        # sqrt(ell) factor restores parity with the single-map head W_fp
        "W_a": np.sqrt(config.semantic_channels / config.hidden),
        # W_fi is applied as x @ W_fi, so its fan-in is its first axis, C
        "W_fi": 1.0 / np.sqrt(config.channels),
    }
    params = {}
    for name, shape in param_shapes(config).items():
        rng = np.random.default_rng([int(seed), 7, PARAM_NAMES.index(name)])
        scale = scales.get(name, 1.0 / np.sqrt(shape[-1]))
        zero = name.startswith("b_") or name == "m0_logits"
        data = np.zeros(shape) if zero else rng.normal(0.0, scale, shape)
        params[name] = Tensor(data, trainable=True)
    params["b_lstm"].data[config.hidden:2 * config.hidden] = 1.0
    params["b_dur"].data[0] = np.log(300.0)
    return params


def _each_step(term: Tensor, rows: int, images: int = 1) -> Tensor:
    """(rows, k) rows (t * G + g) * B + b of a per-observer term on G
    images.

    ``term`` is (B, k), one row per observer on every image, (G * B, k),
    one row per observer of each image, or (G, k), shared by every
    observer of an image. Row (t * G + g) * B + b of the result is row b,
    row g * B + b or row g of the term.
    """
    if images > 1 and term.shape[0] == images:
        spread = (Tensor(np.ones((1, rows // images, 1)))
                  * reshape(term, (images, 1, -1)))
    else:
        spread = Tensor(np.ones((rows // term.shape[0], 1, 1))) * term
    return reshape(spread, (rows, term.shape[-1]))


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

    def one_hots(self, observer_ids) -> np.ndarray:
        """(B, n_observers) one-hot rows of the given observers."""
        return np.stack([self.one_hot(i) for i in observer_ids])

    def encode_observers(self, observer_ids) -> Tensor:
        """(B, d) observer codes, row b = W_u @ one_hot(observer_ids[b]);
        zeros when no pathway reads them."""
        one_hots = self.one_hots(observer_ids)
        if not self.config.uses_embedding:
            return Tensor(np.zeros((len(one_hots), self.config.observer_dim)))
        return linear(Tensor(one_hots), self.params["W_u"])

    # -- forward pieces --------------------------------------------------
    #
    # Each pathway works on the rows of B observers on G images: row
    # (t * G + g) * B + b holds step t of observer b on image g. Terms that
    # depend on the observer but not on the step (the code u, its
    # projections, the guidance map) are computed once and spread over the
    # steps. Under teacher forcing every input that does not depend on the
    # hidden state is known before the first step, so one call covers every
    # step of every observer on one image (G = 1); the free-running rollout
    # calls the same code with T = 1 on all G images of a split. E_flat is
    # one image's (HW, C) features or the (G, HW, C) stack of G images, and
    # each image's rows meet only its own features: the products with E
    # are ``matmul``'s grouped form.

    def features(self, E: np.ndarray) -> Tensor:
        """Constant (HW, C) view of a (C, H, W) feature stack."""
        cfg = self.config
        if E.shape != (cfg.channels, cfg.height, cfg.width):
            raise ValueError(
                f"feature stack shape {E.shape} does not match config "
                f"({cfg.channels}, {cfg.height}, {cfg.width})")
        return Tensor(np.ascontiguousarray(E.reshape(cfg.channels, -1).T))

    def observer_guidance(self, E_flat: Tensor, u: Tensor | None) -> Tensor:
        """(B, HW) probability maps of observer-salient locations, one per
        row of the codes u (B, d); one shared (1, HW) map when u is None.

        They do not depend on the step, so a rollout computes them once.
        """
        p = self.params
        cells = self.config.cells
        scores = linear(E_flat, p["W_eu"])
        batch = 1
        if u is not None:
            batch = u.shape[0]
            scores = scores + reshape(linear(u, p["W_mu"]), (batch, 1, -1))
        pre = reshape(tanh(scores), (batch * cells, -1))
        return softmax(reshape(pre @ p["w_eu"], (batch, cells)), axis=1)

    def integrate_features(self, E_flat: Tensor, maps: Tensor,
                           m_u: Tensor | None, u: Tensor | None) -> Tensor:
        """(T * G * B, h) decoder input: each row is the fused map R_t of
        its observer pooled over space.

        ``maps`` (T * G * B, HW) holds the map fed back into each step,
        ``m_u`` the guidance maps (G * B, HW), or one shared per image
        (G, HW), and ``u`` the codes (B, d). The fixated stacks are
        X_t = E * m_t and X_u = E * m_u (each row of E scaled by the map).

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
        rows = maps.shape[0]
        glimpse = (maps @ E_flat) * (1.0 / cfg.cells)
        if not cfg.enable_fi:
            return glimpse @ p["W_fi"] + p["b_fi"]
        images = E_flat.shape[0] if E_flat.data.ndim == 3 else 1
        rowsum = (E_flat.data.sum(axis=-1).reshape(images, -1)
                  * (0.5 / cfg.channels))
        spatial = ((maps + _each_step(m_u, rows, images))
                   * Tensor(np.repeat(rowsum, rows // images, axis=0)))
        u_s = relu(linear(spatial, p["W_hs"], p["b_hs"]))
        guided = _each_step(m_u @ E_flat, rows, images)
        pooled = concat([glimpse, guided * (1.0 / cfg.cells)], axis=1)
        u_c = relu(linear(pooled, p["W_hc"], p["b_hc"]))
        if u is not None:
            u_s = u_s + _each_step(linear(u, p["W_us"]), rows)
            u_c = u_c + _each_step(linear(u, p["W_uc"]), rows)
        return reshape(mean(u_s, axis=1), (rows, 1)) * u_c

    def initial_state(self, batch: int) -> DecoderState:
        """Zero carries for ``batch`` rows at step 0."""
        return DecoderState(Tensor(np.zeros((batch, 2 * self.config.hidden))))

    def decoder_step(self, X: Tensor, state: DecoderState,
                     observer_ids) -> tuple[DecoderState, Tensor]:
        """LSTM over the T * G * B rows of X from ``state``, one sequence
        per observer on each image.

        Returns the state after the last step and the (T * G * B, h) hidden
        states. All input projections are one matmul; the recurrence is one
        ``lstm`` node over their (T, G * B, 4h) reshape.
        """
        cfg = self.config
        h = cfg.hidden
        batch = state.carry.shape[0]
        steps = X.shape[0] // batch
        if state.t + steps > cfg.max_steps:
            raise ValueError(
                f"decoder step {state.t + steps - 1} would exceed max_steps "
                f"{cfg.max_steps}")
        p = self.params
        if cfg.uses_one_hot:
            identity = np.tile(self.one_hots(observer_ids),
                               (X.shape[0] // len(observer_ids), 1))
            X = concat([X, Tensor(identity)], axis=1)
        Z = linear(X, p["W_ih"], p["b_lstm"])
        seq = lstm(reshape(Z, (steps, batch, 4 * h)), p["W_hh"], state.carry)
        carry = reshape(narrow(seq, 0, steps - 1, 1), (batch, 2 * h))
        H = reshape(narrow(seq, 2, 0, h), (steps * batch, h))
        return DecoderState(carry, state.t + steps), H

    def prioritize_fixation(self, E_flat: Tensor, H: Tensor,
                            u: Tensor | None,
                            visited: np.ndarray | None = None
                            ) -> tuple[Tensor, Tensor, Tensor]:
        """(T * G * B, HW) next-fixation logits with the map weights and
        descriptors, for hidden states H (T * G * B, h) and codes u (B, d).

        FP on: semantic map l of a row is the spatial map A[l] read from
        its hidden state h by W_a, plus this scene's feature channels
        weighted by a hidden-state query, S[l] = A[l] + E q_l with
        q = W_q @ h + b_q, so the maps follow the image. Per-map
        descriptors V[l] = mean over space of E gated by S[l], softmax
        weights beta over maps, and the logits are the beta-weighted sum of
        the maps. ``visited`` (rows, HW) counts the fixations made before
        each row's step per cell; spread by inhibition_kernel and scaled by
        the learned strength softplus(b_ior), it is subtracted from the
        logits (inhibition of return). Returns the logits, beta (rows, L)
        and V (rows * L, C). FP off: a hidden-state projection, with beta
        a point mass (rows, 1) and V zeros (rows, C).
        """
        cfg = self.config
        p = self.params
        rows = H.shape[0]
        maps = cfg.semantic_channels
        if not cfg.enable_fp:
            logits = linear(H, p["W_fp"], p["b_fp"])
            return (logits, Tensor(np.ones((rows, 1))),
                    Tensor(np.zeros((rows, cfg.channels))))
        n = rows * maps
        A = reshape(linear(H, p["W_a"], p["b_a"]), (n, cfg.cells))
        queries = reshape(linear(H, p["W_q"], p["b_q"]),
                          (n, cfg.channels))
        S = A + queries @ Tensor(E_flat.data.swapaxes(-1, -2))
        V = (S @ E_flat) * (1.0 / cfg.cells)
        scores = linear(V, p["W_b"])
        if u is not None:
            batch = u.shape[0]
            per_map = reshape(scores, (rows // batch, batch, maps, -1))
            code = reshape(linear(u, p["W_um"]), (batch, 1, -1))
            scores = reshape(per_map + code, (n, -1))
        beta = softmax(reshape(tanh(scores) @ p["w_b"], (rows, maps)),
                       axis=1)
        weighted = reshape(beta, (n, 1)) * S
        logits = tsum(reshape(weighted, (rows, maps, cfg.cells)), axis=1)
        if visited is not None:
            logits = logits - softplus(p["b_ior"]) * Tensor(
                visited @ self.inhibition)
        return logits, beta, V

    def duration_head(self, H: Tensor) -> tuple[Tensor, Tensor]:
        """Gaussian parameters (mu, var), one entry per row of H, of the
        log duration in ms."""
        rows = H.shape[0]
        v = linear(H, self.params["W_dur"], self.params["b_dur"])
        mu = reshape(narrow(v, 1, 0, 1), (rows,))
        var = softplus(reshape(narrow(v, 1, 1, 1), (rows,))) + VAR_FLOOR
        return mu, var

    def initial_map(self) -> Tensor:
        return softmax(self.params["m0_logits"])

    # -- rollouts --------------------------------------------------------

    def _context(self, stacks, observer_ids):
        """Per-rollout constants (E_flat (G, HW, C), observer_ids, u, m_u)
        of B observers on each of G feature stacks; u is None if unread,
        m_u None without FI.

        Each image's guidance maps come from a pass of their own, so no
        pass holds more than one image's (B, HW, h) scores.
        """
        u = self.encode_observers(observer_ids)
        if not self.config.uses_embedding:
            u = None
        flats = [self.features(E) for E in stacks]
        m_u = None
        if self.config.enable_fi:
            guides = [self.observer_guidance(E_flat, u) for E_flat in flats]
            # a training batch is one image: its tape gets no concat node
            m_u = guides[0] if len(guides) == 1 else concat(guides, axis=0)
        E_flat = Tensor(np.stack([E_flat.data for E_flat in flats]))
        return E_flat, list(observer_ids), u, m_u

    def _steps(self, context, maps: Tensor, visited: np.ndarray,
               state: DecoderState):
        """The step core shared by both rollouts, over the rows of maps:
        T * B t-major rows on one image, or G * B image-major rows of one
        step.

        Returns (state, logits (rows, HW), mu (rows,), var (rows,)).
        """
        E_flat, observer_ids, u, m_u = context
        X = self.integrate_features(E_flat, maps, m_u, u)
        state, H = self.decoder_step(X, state, observer_ids)
        logits, _, _ = self.prioritize_fixation(E_flat, H, u, visited)
        mu, var = self.duration_head(H)
        return state, logits, mu, var

    def teacher_forced_batch(self, E: np.ndarray, observer_ids,
                             cells: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
        """Stacked (logits (T * B, HW), mu (T * B,), var (T * B,)) with
        ground-truth feedback for B scanpaths of one length T on one image,
        from one pass of the step core.

        ``cells[t, b]`` is the ground-truth cell of step t of scanpath b,
        read as observer ``observer_ids[b]``; output row t * B + b is that
        step. Step t sees the one-hot map of ground-truth fixation t-1 (the
        learned initial map at t=0), and the fixations before t feed the
        inhibition of return, so step t depends only on fixations before t.
        """
        cfg = self.config
        steps, batch = cells.shape
        if len(observer_ids) != batch:
            raise ValueError(
                f"a teacher-forced pass needs one observer per ground truth, "
                f"got observers {list(observer_ids)} for {batch} ground truths")
        if steps > cfg.max_steps:
            raise ValueError(
                f"ground truth length {steps} exceeds max_steps "
                f"{cfg.max_steps}")
        context = self._context([E], observer_ids)
        forced = np.zeros((steps, batch, cfg.cells))
        forced[np.arange(steps)[:, None], np.arange(batch), cells] = 1.0
        visited = (np.cumsum(forced, axis=0) - forced).reshape(-1, cfg.cells)
        maps = Tensor(np.ones((batch, 1))) * self.initial_map()
        if steps > 1:
            earlier = forced[:-1].reshape(-1, cfg.cells)
            maps = concat([maps, Tensor(earlier)], axis=0)
        _, logits, mu, var = self._steps(context, maps, visited,
                                         self.initial_state(batch))
        return logits, mu, var

    def rollout_teacher_forced(self, E: np.ndarray, observer_id: int,
                               gt: Scanpath) -> list[tuple[Tensor, Tensor, Tensor]]:
        """Per-step (m_t, mu_t, var_t) of ``teacher_forced_batch`` on one
        scanpath, m_t the length-HW softmax map."""
        rows, _ = read_fixations([gt])
        cfg = self.config
        cells = grid_cells(rows[:, 0], rows[:, 1], cfg.height, cfg.width)
        logits, mu, var = self.teacher_forced_batch(E, [observer_id],
                                                    cells[:, None])
        maps = softmax(logits, axis=1)
        return [(reshape(narrow(maps, 0, t, 1), (cfg.cells,)),
                 reshape(narrow(mu, 0, t, 1), ()),
                 reshape(narrow(var, 0, t, 1), ())) for t in range(len(gt))]

    def sample_scanpaths(self, stacks, observer_ids, seeds,
                         n_steps: int | None = None, mode: str = "argmax",
                         image_ids=None) -> list[Scanpath]:
        """One free-running rollout of B observers on each of G images,
        each feeding back its own soft maps; returns the G * B scanpaths,
        image-major.

        ``stacks`` holds the G (C, H, W) feature stacks and ``image_ids``
        their ids (-1 each by default). Row g * B + b of the rollout is
        observer ``observer_ids[b]`` on image g, and each step is one pass
        of the step core with T = 1 from the carried states. The cells an
        observer fixates, not its soft maps, feed its inhibition of return,
        as the ground-truth cells do under teacher forcing.

        ``argmax`` picks the modal cell and the median duration exp(mu);
        ``sample`` draws the cell from m_t and the duration log-normally.
        Row r draws from its own stream ``default_rng(seeds[r])``, so its
        scanpath does not depend on which observers and images share the
        rollout. Durations are clamped to ``DUR_CLAMP_MS``.
        """
        cfg = self.config
        steps = cfg.max_steps if n_steps is None else int(n_steps)
        if not 1 <= steps <= cfg.max_steps:
            raise ValueError(
                f"n_steps {steps} outside [1, {cfg.max_steps}]")
        if mode not in ("argmax", "sample"):
            raise ValueError("mode must be 'argmax' or 'sample'")
        image_ids = [-1] * len(stacks) if image_ids is None else image_ids
        if len(image_ids) != len(stacks):
            raise ValueError(
                f"got {len(image_ids)} image ids for {len(stacks)} images")
        batch = len(stacks) * len(observer_ids)
        if len(seeds) != batch:
            raise ValueError(f"got {len(seeds)} seeds for {len(observer_ids)} "
                             f"observers on {len(stacks)} images")
        rngs = [np.random.default_rng(seed) for seed in seeds]
        context = self._context(stacks, observer_ids)
        state = self.initial_state(batch)
        m_prev = Tensor(np.ones((batch, 1))) * self.initial_map()
        visited = np.zeros((batch, cfg.cells))
        cells = np.empty((steps, batch), dtype=int)
        log_durs = np.empty((steps, batch))
        for t in range(steps):
            state, logits, mu, var = self._steps(context, m_prev, visited,
                                                 state)
            m_prev = softmax(logits, axis=1)
            if mode == "argmax":
                cells[t] = np.argmax(m_prev.data, axis=1)
                log_durs[t] = mu.data
            else:
                for r, rng in enumerate(rngs):
                    prob = m_prev.data[r]
                    cells[t, r] = rng.choice(prob.size, p=prob / prob.sum())
                    log_durs[t, r] = rng.normal(mu.data[r],
                                                np.sqrt(var.data[r]))
            visited[np.arange(batch), cells[t]] += 1.0
        with np.errstate(over="ignore"):  # an inf duration is clamped too
            durs = np.clip(np.exp(log_durs), *DUR_CLAMP_MS)
        rows = np.dstack([cell_centers(cfg.height, cfg.width)[cells], durs])
        keys = [(i, o) for i in image_ids for o in observer_ids]
        return [Scanpath(image_id=image_id, observer_id=int(observer_id),
                         fixations=tuple(Fixation(*row)
                                         for row in rows[:, r].tolist()))
                for r, (image_id, observer_id) in enumerate(keys)]

    def sample_scanpath(self, E: np.ndarray, observer_id: int,
                        n_steps: int | None = None, mode: str = "argmax",
                        seed=0, image_id: int = -1) -> Scanpath:
        """``sample_scanpaths`` of one observer, drawing from ``seed``."""
        return self.sample_scanpaths([E], [observer_id], [seed], n_steps,
                                     mode, [image_id])[0]


def ablation_config(base: ModelConfig, variant: str) -> ModelConfig:
    """Config for one row of the incremental ablation table.

    The observer code is read only by FI and FP, so the "OE" row (both off)
    shares its config with "none".
    """
    agnostic = dict(enable_fi=False, enable_fp=False)
    table = {
        "none": agnostic,
        "OE": agnostic,
        "OE+FI": dict(enable_fi=True, enable_fp=False),
        "OE+FP": dict(enable_fi=False, enable_fp=True),
        "OE+FI+FP": dict(enable_fi=True, enable_fp=True),
        "one_hot": dict(agnostic, observer_mode="one_hot_concat"),
    }
    if variant not in table:
        raise ValueError(f"unknown variant {variant!r}; "
                         f"choose from {sorted(table)}")
    changes = dict(observer_mode="embedding")
    changes.update(table[variant])
    return replace(base, **changes)


ABLATION_VARIANTS = ("none", "OE", "OE+FI", "OE+FP", "OE+FI+FP", "one_hot")
