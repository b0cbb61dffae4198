"""Bias-corrected Adam with decoupled weight decay, over one flat buffer.

A step sweeps the buffer once, in ceil(size / ``BLOCK``) blocks of equal
size (the last up to one value per block shorter), so no block is a short
tail that costs as many NumPy calls as a full one. Each block runs all of
Adam's elementwise operations while its slices of the parameters,
gradient and moments fit in a 2 MB L2 cache together, so the arrays are
read from memory once a step rather than once an operation.
The operations and their order are the same for every value as in one
whole-buffer pass, so the update is bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

# the most values a block holds: 32,768 float64 values are 256 KB, and a
# block's four buffer slices and the scratch block take 1.25 MB
BLOCK = 1 << 15

# the moment decay rates and the denominator floor Kingma & Ba recommend
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over a named parameter dict, updated in place as one array.

    The constructor moves every parameter into one float64 buffer: each
    ``p.data`` becomes a view of its slice, with its values unchanged. The
    moment estimates and a gradient buffer have the same length, so a step
    is a few NumPy calls per block of the buffer rather than a few per
    parameter; the scratch buffer is one block long. Weight decay is
    decoupled from the moment estimates: each update applies
    ``p -= lr * (m_hat / (sqrt(v_hat) + EPS) + weight_decay * p)``.
    ``lr_scale`` multiplies the step size of the named parameters; the rest
    step at ``lr``. The step size is applied once per run of neighbouring
    parameters that share a scale, so no per-value scale vector is kept.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        weight_decay: float,
        lr_scale: dict[str, float] | None = None,
    ):
        self.params = dict(params)
        lr_scale = lr_scale or {}
        self.weight_decay = float(weight_decay)
        size = sum(p.data.size for p in self.params.values())
        flat, grad = np.empty(size), np.empty(size)
        m, v = np.zeros(size), np.zeros(size)
        # ceil(size / BLOCK) blocks, each ceil(size / blocks) values long
        blocks = max(1, -(-size // BLOCK))
        block = max(1, -(-size // blocks))
        scratch = np.empty(block)
        self._t = 0
        self._grad_views = {}
        runs = []  # (start, stop, lr) of neighbours sharing a scale
        start = 0
        for name, p in self.params.items():
            stop = start + p.data.size
            view = flat[start:stop].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._grad_views[name] = grad[start:stop].reshape(view.shape)
            lr_p = float(lr) * lr_scale.get(name, 1.0)
            if runs and runs[-1][2] == lr_p:
                runs[-1] = (runs[-1][0], stop, lr_p)
            else:
                runs.append((start, stop, lr_p))
            start = stop
        # per block: its views of the four buffers and the scratch, and
        # the runs of step sizes cut at the block's edges
        self._blocks = []
        for lo in range(0, size, block):
            hi = min(lo + block, size)
            pieces = [(max(a, lo) - lo, min(b, hi) - lo, lr)
                      for a, b, lr in runs if a < hi and b > lo]
            self._blocks.append((flat[lo:hi], grad[lo:hi], m[lo:hi],
                                 v[lo:hi], scratch[:hi - lo], pieces))

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
        b1, b2, eps, wd = BETA1, BETA2, EPS, self.weight_decay
        c1, c2 = 1.0 - b1**self._t, 1.0 - b2**self._t
        for flat, g, m, v, s, pieces in self._blocks:
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            v *= b2
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v += s
            # the gradient is spent: g now holds m_hat / (sqrt(v_hat) + eps)
            np.divide(m, c1, out=g)
            np.divide(v, c2, out=s)
            np.sqrt(s, out=s)
            s += eps
            g /= s
            np.multiply(flat, wd, out=s)
            g += s
            for start, stop, lr in pieces:
                np.multiply(g[start:stop], lr, out=s[start:stop])
                flat[start:stop] -= s[start:stop]
