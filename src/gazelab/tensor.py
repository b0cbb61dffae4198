"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

The primitive set is closed and enumerated in ``DIFFERENTIABLE_PRIMITIVES``.
Everything downstream (scanpath model, losses, the LOOCV classifier) is built
from these ops, so a gradient check over the registry plus one end-to-end
check covers the whole training path.

Conventions
-----------
* All values are ``np.float64``; integer or float input is promoted on entry.
* Ops run eagerly. Under an active :class:`Tape` they also append nodes to
  the tape; outside a tape they are plain numpy calls and produce identical
  values.
* A tape is single-owner. Concurrent training requires independent tapes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not fit a primitive's contract."""


class DomainError(ValueError):
    """Raised when operand values leave a primitive's domain (e.g. a zero divisor)."""


_STATE = threading.local()


def _tape_stack() -> list:
    if not hasattr(_STATE, "stack"):
        _STATE.stack = []
    return _STATE.stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


class Tensor:
    """A float64 array plus an optional node id on the active tape."""

    __slots__ = ("data", "trainable", "node", "_tape_token")

    def __init__(self, data, trainable: bool = False):
        self.data = _as_array(data)
        self.trainable = trainable
        self.node = None
        self._tape_token = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), trainable=self.trainable)

    def __repr__(self) -> str:
        flag = ", trainable" if self.trainable else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # Operator sugar; every branch lands in a registered primitive.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


@dataclass
class _Node:
    op: str
    parents: tuple
    backward: Callable | None  # grad -> list of (parent id, contribution)


class Tape:
    """Append-only record of primitive applications for one forward pass.

    Gradients can be taken once: ``gradients`` frees every node's backward
    closure as it goes, so the arrays the closures hold are released by
    reference counting rather than left to the cyclic collector (each
    recorded Tensor points back at its tape). The node list itself stays,
    so ``len(tape.nodes)`` still counts what was recorded.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._leaves: dict[int, Tensor] = {}
        self._entered = False
        self._spent = False

    def __enter__(self) -> "Tape":
        if self._entered:
            raise RuntimeError("a Tape cannot be entered twice")
        self._entered = True
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False

    def _leaf_id(self, t: Tensor) -> int:
        if t._tape_token is not self:
            t.node = None
            t._tape_token = self
        if t.node is None:
            t.node = len(self.nodes)
            self.nodes.append(_Node("leaf", (), None))
            if t.trainable:
                self._leaves[t.node] = t
        return t.node

    def _record(self, op: str, parent_ids: tuple, backward: Callable) -> int:
        nid = len(self.nodes)
        self.nodes.append(_Node(op, parent_ids, backward))
        return nid

    def gradients(self, root: Tensor) -> dict:
        """Backpropagate from a scalar root.

        Returns a mapping from trainable leaf Tensor to its gradient array.
        Leaves the loss never touched are absent from the map. A second
        call on the same tape raises ``ValueError``.
        """
        if self._spent:
            raise ValueError("gradients were already taken from this tape")
        if root.node is None and root.trainable:
            self._leaf_id(root)
        if root.node is None or root._tape_token is not self:
            raise ValueError("root was not recorded on this tape")
        if root.data.size != 1:
            raise ValueError(f"backprop root must be scalar, got shape {root.data.shape}")
        self._spent = True
        for node in self.nodes[root.node + 1:]:
            node.backward = None
        grads: dict[int, np.ndarray] = {root.node: np.ones_like(root.data)}
        for nid in range(root.node, -1, -1):
            node = self.nodes[nid]
            backward, node.backward = node.backward, None
            g = grads.pop(nid, None)
            if g is None:
                continue
            if backward is None:
                grads[nid] = g  # keep leaf grads
                continue
            for pid, contrib in backward(g):
                if pid in grads:
                    grads[pid] = grads[pid] + contrib
                else:
                    grads[pid] = contrib
        return {t: grads[nid] for nid, t in self._leaves.items() if nid in grads}


def _trace(op: str, out: np.ndarray, inputs: Sequence[Tensor], backward_builder) -> Tensor:
    """Wrap a primitive result; append a node when a tape is active.

    ``backward_builder`` is called only when recording, with the input node
    ids of the traced operands, and must return grad -> [(pid, contrib)].
    """
    result = Tensor(out)
    tape = _active_tape()
    if tape is None:
        return result
    parent_ids = []
    input_slots = []
    for pos, t in enumerate(inputs):
        if t.trainable or (t._tape_token is tape and t.node is not None):
            parent_ids.append(tape._leaf_id(t))
            input_slots.append(pos)
    if not parent_ids:
        return result
    backward = backward_builder(tuple(parent_ids), tuple(input_slots))
    result.node = tape._record(op, tuple(parent_ids), backward)
    result._tape_token = tape
    return result


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over axes introduced or stretched by numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _check_broadcast(op: str, a: np.ndarray, b: np.ndarray) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from exc


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("add", a.data, b.data)
    out = a.data + b.data

    def build(pids, slots):
        shapes = {0: a.data.shape, 1: b.data.shape}

        def backward(g):
            return [(pid, _unbroadcast(g, shapes[slot])) for pid, slot in zip(pids, slots)]

        return backward

    return _trace("add", out, (a, b), build)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("sub", a.data, b.data)
    out = a.data - b.data

    def build(pids, slots):
        shapes = {0: a.data.shape, 1: b.data.shape}

        def backward(g):
            outs = []
            for pid, slot in zip(pids, slots):
                contrib = _unbroadcast(g if slot == 0 else -g, shapes[slot])
                outs.append((pid, contrib))
            return outs

        return backward

    return _trace("sub", out, (a, b), build)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("mul", a.data, b.data)
    out = a.data * b.data

    def build(pids, slots):
        av, bv = a.data, b.data

        def backward(g):
            outs = []
            for pid, slot in zip(pids, slots):
                if slot == 0:
                    outs.append((pid, _unbroadcast(g * bv, av.shape)))
                else:
                    outs.append((pid, _unbroadcast(g * av, bv.shape)))
            return outs

        return backward

    return _trace("mul", out, (a, b), build)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("div", a.data, b.data)
    if np.any(b.data == 0.0):
        raise DomainError("div: zero divisor")
    out = a.data / b.data

    def build(pids, slots):
        av, bv = a.data, b.data

        def backward(g):
            outs = []
            for pid, slot in zip(pids, slots):
                if slot == 0:
                    outs.append((pid, _unbroadcast(g / bv, av.shape)))
                else:
                    outs.append((pid, _unbroadcast(-g * av / (bv * bv), bv.shape)))
            return outs

        return backward

    return _trace("div", out, (a, b), build)


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = -a.data

    def build(pids, slots):
        def backward(g):
            return [(pids[0], -g)]

        return backward

    return _trace("neg", out, (a,), build)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.data, b.data
    if av.ndim == 0 or bv.ndim == 0:
        raise ShapeError(f"matmul: operands must be at least 1-D, got {av.shape} and {bv.shape}")
    if av.ndim > 2 or bv.ndim > 2:
        raise ShapeError(f"matmul: operands must be at most 2-D, got {av.shape} and {bv.shape}")
    if av.shape[-1] != (bv.shape[0] if bv.ndim >= 1 else None):
        raise ShapeError(f"matmul: inner dimensions differ, {av.shape} @ {bv.shape}")
    out = av @ bv

    def build(pids, slots):
        a2 = av.reshape(1, -1) if av.ndim == 1 else av
        b2 = bv.reshape(-1, 1) if bv.ndim == 1 else bv

        def backward(g):
            g2 = g.reshape(a2.shape[0], b2.shape[1])
            outs = []
            for pid, slot in zip(pids, slots):
                if slot == 0:
                    ga = g2 @ b2.T
                    outs.append((pid, ga.reshape(av.shape)))
                else:
                    gb = a2.T @ g2
                    outs.append((pid, gb.reshape(bv.shape)))
            return outs

        return backward

    return _trace("matmul", out, (a, b), build)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expects a 2-D operand, got {a.data.shape}")
    out = a.data.T  # a view: matmul hands it to BLAS as transposed, uncopied

    def build(pids, slots):
        def backward(g):
            return [(pids[0], g.T)]

        return backward

    return _trace("transpose", out, (a,), build)


# ---------------------------------------------------------------------------
# structure


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat: needs at least one operand")
    nd = parts[0].data.ndim
    for p in parts:
        if p.data.ndim != nd:
            raise ShapeError(
                "concat: rank mismatch, " + " vs ".join(str(q.data.shape) for q in parts)
            )
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(
            "concat: shapes " + ", ".join(str(p.data.shape) for p in parts) + f" on axis {axis}"
        ) from exc

    def build(pids, slots):
        sizes = [p.data.shape[axis] for p in parts]
        offsets = np.cumsum([0] + sizes)

        def backward(g):
            outs = []
            for pid, slot in zip(pids, slots):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offsets[slot], offsets[slot + 1])
                outs.append((pid, g[tuple(sl)]))
            return outs

        return backward

    return _trace("concat", out, tuple(parts), build)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    a = as_tensor(a)
    extent = a.data.shape[axis]
    if start < 0 or start + length > extent:
        raise ShapeError(f"narrow: [{start}:{start + length}] outside axis {axis} of {a.data.shape}")
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    out = a.data[tuple(sl)].copy()

    def build(pids, slots):
        def backward(g):
            full = np.zeros_like(a.data)
            full[tuple(sl)] = g
            return [(pids[0], full)]

        return backward

    return _trace("narrow", out, (a,), build)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: {a.data.shape} to {tuple(shape)}") from exc
    out = out.copy()

    def build(pids, slots):
        def backward(g):
            return [(pids[0], g.reshape(a.data.shape))]

        return backward

    return _trace("reshape", out, (a,), build)


def pick(a, index) -> Tensor:
    """Select one element; the scalar result keeps the graph connected."""
    a = as_tensor(a)
    idx = tuple(int(i) for i in index) if isinstance(index, (tuple, list)) else (int(index),)
    if len(idx) != a.data.ndim:
        raise ShapeError(f"pick: index {idx} does not address shape {a.data.shape}")
    out = np.asarray(a.data[idx])

    def build(pids, slots):
        def backward(g):
            full = np.zeros_like(a.data)
            full[idx] = g
            return [(pids[0], full)]

        return backward

    return _trace("pick", out, (a,), build)


# ---------------------------------------------------------------------------
# reductions


def mean(a, axis: int) -> Tensor:
    a = as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"mean: axis {axis} outside shape {a.data.shape}")
    axis = axis % a.data.ndim
    out = a.data.mean(axis=axis)

    def build(pids, slots):
        n = a.data.shape[axis]

        def backward(g):
            ge = np.expand_dims(g, axis)
            return [(pids[0], np.broadcast_to(ge / n, a.data.shape).copy())]

        return backward

    return _trace("mean", out, (a,), build)


def tsum(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    if axis is not None and not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"sum: axis {axis} outside shape {a.data.shape}")
    out = a.data.sum(axis=axis)

    def build(pids, slots):
        def backward(g):
            if axis is None:
                return [(pids[0], np.broadcast_to(g, a.data.shape).copy())]
            ge = np.expand_dims(g, axis % a.data.ndim)
            return [(pids[0], np.broadcast_to(ge, a.data.shape).copy())]

        return backward

    return _trace("sum", out, (a,), build)


# ---------------------------------------------------------------------------
# nonlinearities


def softmax(a, axis: int = -1) -> Tensor:
    """Stable softmax along one axis; invariant to a constant shift."""
    a = as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"softmax: axis {axis} outside shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def build(pids, slots):
        s = out

        def backward(g):
            dot = (g * s).sum(axis=axis, keepdims=True)
            return [(pids[0], (g - dot) * s)]

        return backward

    return _trace("softmax", out, (a,), build)


def _unary(op: str, a, fwd, bwd) -> Tensor:
    a = as_tensor(a)
    out = fwd(a.data)

    def build(pids, slots):
        def backward(g):
            return [(pids[0], bwd(g, a.data, out))]

        return backward

    return _trace(op, out, (a,), build)


def tanh(a) -> Tensor:
    return _unary("tanh", a, np.tanh, lambda g, x, y: g * (1.0 - y * y))


def relu(a) -> Tensor:
    return _unary("relu", a, lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (x > 0.0))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def sigmoid(a) -> Tensor:
    return _unary("sigmoid", a, _sigmoid, lambda g, x, y: g * y * (1.0 - y))


def softplus(a) -> Tensor:
    return _unary(
        "softplus",
        a,
        lambda x: np.logaddexp(0.0, x),
        lambda g, x, y: g * _sigmoid(x),
    )


# ---------------------------------------------------------------------------
# fused sequence and loss primitives


def lstm(z, w_hh, state) -> Tensor:
    """LSTM recurrence over a (T, 4h) sequence of input pre-activations.

    Gates are ordered i, f, g, o. Step t adds ``w_hh @ h_{t-1}`` to row t
    of ``z``; then c_t = f * c_{t-1} + i * g and h_t = o * tanh(c_t).
    ``state`` is the length-2h carry [h_0, c_0]. Returns (T, 2h) with row t
    equal to [h_t, c_t], so the last row is the carry of a following call;
    T chained one-row calls give bit-identical rows. The backward pass is
    backpropagation through time over the saved gate activations.
    """
    z, w_hh, state = as_tensor(z), as_tensor(w_hh), as_tensor(state)
    zv, wv, sv = z.data, w_hh.data, state.data
    if zv.ndim != 2 or zv.shape[0] < 1 or zv.shape[1] % 4 != 0:
        raise ShapeError(f"lstm: pre-activations must be (T >= 1, 4h), got {zv.shape}")
    steps, h = zv.shape[0], zv.shape[1] // 4
    if wv.shape != (4 * h, h) or sv.shape != (2 * h,):
        raise ShapeError(
            f"lstm: with {zv.shape} pre-activations w_hh must be {(4 * h, h)} and "
            f"state {(2 * h,)}, got {wv.shape} and {sv.shape}"
        )
    out = np.empty((steps, 2 * h))
    acts = np.empty((steps, 4 * h))
    hidden, cell = sv[:h], sv[h:]
    for t in range(steps):
        a = zv[t] + wv @ hidden
        act = acts[t]
        act[:] = _sigmoid(a)
        act[2 * h:3 * h] = np.tanh(a[2 * h:3 * h])
        cell = act[h:2 * h] * cell + act[:h] * act[2 * h:3 * h]
        hidden = act[3 * h:] * np.tanh(cell)
        out[t, :h] = hidden
        out[t, h:] = cell

    def build(pids, slots):
        prev = np.vstack([sv[None, :], out[:-1]])  # carry entering each step
        tanh_c = np.tanh(out[:, h:])

        def backward(g):
            dz = np.empty((steps, 4 * h))
            dh = np.zeros(h)
            dc = np.zeros(h)
            for t in range(steps - 1, -1, -1):
                i, f = acts[t, :h], acts[t, h:2 * h]
                gg, o = acts[t, 2 * h:3 * h], acts[t, 3 * h:]
                dh = g[t, :h] + dh
                dc = g[t, h:] + dc + dh * o * (1.0 - tanh_c[t] * tanh_c[t])
                dz[t, :h] = dc * gg * i * (1.0 - i)
                dz[t, h:2 * h] = dc * prev[t, h:] * f * (1.0 - f)
                dz[t, 2 * h:3 * h] = dc * i * (1.0 - gg * gg)
                dz[t, 3 * h:] = dh * tanh_c[t] * o * (1.0 - o)
                dh = dz[t] @ wv
                dc = dc * f
            grads = {0: dz, 1: dz.T @ prev[:, :h], 2: np.concatenate([dh, dc])}
            return [(pid, grads[slot]) for pid, slot in zip(pids, slots)]

        return backward

    return _trace("lstm", out, (z, w_hh, state), build)


def softmax_nll(logits, targets) -> Tensor:
    """Mean over rows of -log softmax(logits[t])[targets[t]], a scalar.

    ``logits`` is (T, K); ``targets`` holds T integer class indices and is
    not differentiated. Computed from the logits by log-sum-exp, so no
    probability is ever rounded to zero.
    """
    x = as_tensor(logits)
    xv = x.data
    idx = np.asarray(targets)
    if xv.ndim != 2 or xv.shape[0] < 1:
        raise ShapeError(f"softmax_nll: logits must be (T >= 1, K), got {xv.shape}")
    if idx.shape != (xv.shape[0],) or not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(
            f"softmax_nll: needs {xv.shape[0]} integer targets, got {idx.shape} {idx.dtype}"
        )
    if np.any((idx < 0) | (idx >= xv.shape[1])):
        raise DomainError(f"softmax_nll: targets outside [0, {xv.shape[1]})")
    rows = np.arange(xv.shape[0])
    shifted = xv - xv.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1)
    out = np.asarray(np.mean(np.log(total) - shifted[rows, idx]))

    def build(pids, slots):
        def backward(g):
            p = e / total[:, None]
            p[rows, idx] -= 1.0
            return [(pids[0], p * (g / xv.shape[0]))]

        return backward

    return _trace("softmax_nll", out, (x,), build)


HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def gaussian_nll(mu, var, x) -> Tensor:
    """Mean Gaussian negative log-likelihood of ``x`` under (mu, var), a scalar.

    ``mu``, ``var`` and ``x`` share one shape; ``x`` is not differentiated.
    Every entry of ``var`` must be positive.
    """
    mu, var = as_tensor(mu), as_tensor(var)
    xv = _as_array(x)
    if mu.data.shape != var.data.shape or mu.data.shape != xv.shape or xv.size == 0:
        raise ShapeError(
            f"gaussian_nll: mu {mu.data.shape}, var {var.data.shape} and x {xv.shape} "
            "must match and be nonempty"
        )
    vv = var.data
    if np.any(vv <= 0.0):
        raise DomainError("gaussian_nll: variance has entries <= 0")
    r = mu.data - xv
    out = np.asarray(np.mean(0.5 * (np.log(vv) + r * r / vv)) + HALF_LOG_2PI)

    def build(pids, slots):
        def backward(g):
            scale = g / xv.size
            grads = {0: scale * r / vv, 1: scale * 0.5 * (1.0 - r * r / vv) / vv}
            return [(pid, grads[slot]) for pid, slot in zip(pids, slots)]

        return backward

    return _trace("gaussian_nll", out, (mu, var), build)


# Closed set of differentiable primitives. Tests iterate over this registry,
# so extending the engine without extending the gradient check fails loudly.
DIFFERENTIABLE_PRIMITIVES: dict[str, Callable] = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "div": div,
    "neg": neg,
    "matmul": matmul,
    "transpose": transpose,
    "concat": concat,
    "narrow": narrow,
    "reshape": reshape,
    "pick": pick,
    "mean": mean,
    "sum": tsum,
    "softmax": softmax,
    "tanh": tanh,
    "relu": relu,
    "sigmoid": sigmoid,
    "softplus": softplus,
    "lstm": lstm,
    "softmax_nll": softmax_nll,
    "gaussian_nll": gaussian_nll,
}


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Per-parameter maximum relative error and the overall verdict."""

    max_rel_err: dict = field(default_factory=dict)
    tol: float = 1e-4
    passed: bool = True

    def worst(self) -> float:
        return max(self.max_rel_err.values(), default=0.0)


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare backprop gradients of ``f`` against central differences.

    ``f`` must be deterministic and rebuild its graph from the current
    parameter values on every call. Relative error uses the denominator
    max(|analytic|, |numeric|, 1), so the check stays meaningful where
    central differences bottom out in roundoff.
    """
    with Tape() as tape:
        loss = f()
    analytic = tape.gradients(loss)
    report = GradCheckReport(tol=tol)
    for name, p in params.items():
        a = analytic.get(p)
        if a is None:
            a = np.zeros_like(p.data)
        worst = 0.0
        for idx in np.ndindex(p.data.shape):
            orig = p.data[idx]
            p.data[idx] = orig + eps
            up = float(f().data)
            p.data[idx] = orig - eps
            down = float(f().data)
            p.data[idx] = orig
            numeric = (up - down) / (2.0 * eps)
            ai = float(a[idx])
            err = abs(ai - numeric) / max(abs(ai), abs(numeric), 1.0)
            if err > worst:
                worst = err
        report.max_rel_err[name] = worst
        if worst > tol:
            report.passed = False
    return report
