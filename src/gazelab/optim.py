"""Bias-corrected Adam with decoupled weight decay, over one flat buffer."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    """Adam over a named parameter dict, updated in place as one array.

    The constructor moves every parameter into one float64 buffer: each
    ``p.data`` becomes a view of its slice, with its values unchanged. The
    moment estimates, a gradient buffer and a scratch buffer have the same
    length, so a step is a few NumPy calls over whole buffers rather than a
    few per parameter. Weight decay is decoupled from the moment estimates:
    each update applies
    ``p -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)``.
    ``lr_scale`` multiplies the step size of the named parameters; the rest
    step at ``lr``. The step size is applied once per run of neighbouring
    parameters that share a scale, so no per-value scale vector is kept.
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
        size = sum(p.data.size for p in self.params.values())
        self._flat = np.empty(size)
        self._grad = np.empty(size)
        self._scratch = np.empty(size)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._t = 0
        self._grad_views = {}
        self._runs = []  # (start, stop, lr) of neighbours sharing a scale
        start = 0
        for name, p in self.params.items():
            stop = start + p.data.size
            view = self._flat[start:stop].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._grad_views[name] = self._grad[start:stop].reshape(view.shape)
            lr_p = self.lr * self.lr_scale.get(name, 1.0)
            if self._runs and self._runs[-1][2] == lr_p:
                self._runs[-1] = (self._runs[-1][0], stop, lr_p)
            else:
                self._runs.append((start, stop, lr_p))
            start = stop

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        """Apply one update from a Tensor-keyed gradient map (as tapes emit).

        The map must hold a gradient for every parameter; one that lacks a
        parameter raises ``ValueError`` naming it.
        """
        for name, p in self.params.items():
            g = grads.get(p)
            if g is None:
                raise ValueError(f"adam: no gradient for parameter {name}")
            if g.shape != p.data.shape:
                raise ValueError(
                    f"adam: gradient shape {g.shape} != param {name} {p.data.shape}")
            self._grad_views[name][...] = g
        self._t += 1
        g, s, m, v = self._grad, self._scratch, self._m, self._v
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=s)
        s *= g
        v += s
        # the gradient is spent: g now holds m_hat / (sqrt(v_hat) + eps)
        np.divide(m, 1.0 - self.beta1**self._t, out=g)
        np.divide(v, 1.0 - self.beta2**self._t, out=s)
        np.sqrt(s, out=s)
        s += self.eps
        g /= s
        np.multiply(self._flat, self.weight_decay, out=s)
        g += s
        for start, stop, lr in self._runs:
            np.multiply(g[start:stop], lr, out=s[start:stop])
            self._flat[start:stop] -= s[start:stop]
