"""Bias-corrected Adam with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    """Adam over a named parameter dict.

    Weight decay is decoupled from the moment estimates: each update applies
    ``p -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)``. Parameters
    absent from a gradient map are skipped entirely, so a zero-gradient,
    zero-decay step leaves them bit-identical. Moment state and step counts
    are tracked per parameter. ``lr_scale`` multiplies the step size of the
    named parameters; the rest step at ``lr``.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 5e-5,
        lr_scale: dict[str, float] | None = None,
    ):
        self.params = dict(params)
        self.lr = float(lr)
        self.lr_scale = dict(lr_scale or {})
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._t = {name: 0 for name in self.params}

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        """Apply one update from a Tensor-keyed gradient map (as tapes emit)."""
        by_id = {id(p): name for name, p in self.params.items()}
        for tensor, g in grads.items():
            name = by_id.get(id(tensor))
            if name is None:
                continue
            self._update(name, g)

    def _update(self, name: str, g: np.ndarray) -> None:
        p = self.params[name]
        if g.shape != p.data.shape:
            raise ValueError(f"adam: gradient shape {g.shape} != param {name} {p.data.shape}")
        self._t[name] += 1
        t = self._t[name]
        m = self._m[name]
        v = self._v[name]
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        lr = self.lr * self.lr_scale.get(name, 1.0)
        p.data -= lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data)
