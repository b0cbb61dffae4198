"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

The primitive set is closed and enumerated in ``DIFFERENTIABLE_PRIMITIVES``:
18 ops, each one recorded by a model training batch or a LOOCV classifier
epoch, and no other. Everything downstream (scanpath model, losses, the
classifier) is built from these ops, so a gradient check over the registry
plus one end-to-end check covers the whole training path.

Conventions
-----------
* All values are ``np.float64``; integer or float input is promoted on entry.
* Ops run eagerly. Under an active :class:`Tape` they also append nodes to
  the tape; outside a tape they are plain numpy calls and produce identical
  values, and ``concat`` and ``lstm`` set up no gradient functions.
* Each thread has its own stack of open tapes, so an op is recorded only on
  a tape its own thread opened. A tape is single-owner; concurrent training
  requires independent tapes.
* Each primitive passes ``_trace`` one gradient function per operand,
  mapping the output gradient to that operand's contribution. A node keeps
  the functions of its traced operands only, and each function closes over
  only what its formula reads (shapes, not operand Tensors, where a shape
  suffices).
* The fused ``lstm`` runs B sequences at once, on a (T, B, 4h) input with a
  (B, 2h) carry, so a batch of scanpaths is one node as one scanpath is.
  ``linear`` is a weight layer ``x @ w.T + b`` as one node.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not fit a primitive's contract."""


class DomainError(ValueError):
    """Raised when operand values leave a primitive's domain (e.g. a zero divisor)."""


class _TapeStacks(threading.local):
    """Each thread's stack of open tapes, innermost last: a tape opened in
    one thread is invisible to primitives run by another."""

    def __init__(self):
        self.tapes: list = []


_OPEN = _TapeStacks()


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


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


@dataclass(slots=True)
class _Node:
    op: str
    parents: tuple
    vjps: tuple | None  # vjps[i]: output grad -> contribution to parents[i]


class Tape:
    """Append-only record of primitive applications for one forward pass.

    A recorded Tensor is marked with the tape's token, a plain object, not
    with the tape itself: the tape holds its trainable leaves, so a mark
    pointing back at the tape would make every trained parameter part of a
    reference cycle that only the cyclic collector frees. Gradients can be
    taken once: ``gradients`` frees every node's gradient functions as it
    goes, so the arrays they hold are released by reference counting too.
    The node list itself stays, so ``len(tape.nodes)`` still counts what
    was recorded.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._leaves: dict[int, Tensor] = {}
        self._token = object()
        self._entered = False
        self._spent = False

    def __enter__(self) -> "Tape":
        if self._entered:
            raise RuntimeError("a Tape cannot be entered twice")
        self._entered = True
        _OPEN.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _OPEN.tapes.pop()
        return False

    def _leaf_id(self, t: Tensor) -> int:
        if t._tape_token is not self._token:
            t.node = None
            t._tape_token = self._token
        if t.node is None:
            t.node = len(self.nodes)
            self.nodes.append(_Node("leaf", (), None))
            if t.trainable:
                self._leaves[t.node] = t
        return t.node

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
        if root.node is None or root._tape_token is not self._token:
            raise ValueError("root was not recorded on this tape")
        if root.data.size != 1:
            raise ValueError(f"backprop root must be scalar, got shape {root.data.shape}")
        self._spent = True
        for node in self.nodes[root.node + 1:]:
            node.vjps = None
        grads: dict[int, np.ndarray] = {root.node: np.ones_like(root.data)}
        for nid in range(root.node, -1, -1):
            node = self.nodes[nid]
            vjps, node.vjps = node.vjps, None
            g = grads.pop(nid, None)
            if g is None:
                continue
            if vjps is None:
                grads[nid] = g  # keep leaf grads
                continue
            for pid, vjp in zip(node.parents, vjps):
                contrib = vjp(g)
                grads[pid] = grads[pid] + contrib if pid in grads else contrib
        return {t: grads[nid] for nid, t in self._leaves.items() if nid in grads}


def _trace(op: str, out: np.ndarray, inputs: Sequence[Tensor], *vjps) -> Tensor:
    """Wrap a primitive result; append a node when a tape is active.

    ``vjps[i]`` maps the output gradient to input i's contribution. Only
    the traced inputs keep theirs, so a constant operand costs no backward
    work.
    """
    result = Tensor(out)
    tapes = _OPEN.tapes
    if not tapes:
        return result
    tape = tapes[-1]
    token = tape._token
    parents, kept = [], []
    for t, vjp in zip(inputs, vjps):
        if t._tape_token is token and t.node is not None:  # recorded here
            parents.append(t.node)
        elif t.trainable:
            parents.append(tape._leaf_id(t))
        else:
            continue
        kept.append(vjp)
    if not parents:
        return result
    result.node = len(tape.nodes)
    tape.nodes.append(_Node(op, tuple(parents), tuple(kept)))
    result._tape_token = token
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


def _broadcast(op: str, fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``fn(a, b)`` of a NumPy binary ufunc, whose only ValueError is a
    broadcast failure."""
    try:
        return fn(a, b)
    except ValueError as exc:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from exc


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _broadcast("add", np.add, a.data, b.data)
    sa, sb = a.data.shape, b.data.shape
    return _trace("add", out, (a, b),
                  lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(g, sb))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _broadcast("sub", np.subtract, a.data, b.data)
    sa, sb = a.data.shape, b.data.shape
    return _trace("sub", out, (a, b),
                  lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(-g, sb))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.data, b.data
    out = _broadcast("mul", np.multiply, av, bv)
    sa, sb = av.shape, bv.shape
    return _trace("mul", out, (a, b),
                  lambda g: _unbroadcast(g * bv, sa), lambda g: _unbroadcast(g * av, sb))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.data, b.data
    if np.any(bv == 0.0):
        raise DomainError("div: zero divisor")
    out = _broadcast("div", np.divide, av, bv)
    sa, sb = av.shape, bv.shape
    return _trace("div", out, (a, b),
                  lambda g: _unbroadcast(g / bv, sa),
                  lambda g: _unbroadcast(-g * av / (bv * bv), sb))


# ---------------------------------------------------------------------------
# linear algebra


def _as_matrices(av: np.ndarray, bv: np.ndarray) -> tuple:
    """The operands of ``av @ bv`` as matrices: a vector ``av`` is one row,
    a vector ``bv`` one column."""
    return (av.reshape(1, -1) if av.ndim == 1 else av,
            bv.reshape(-1, 1) if bv.ndim == 1 else bv)


def matmul(a, b) -> Tensor:
    """``a @ b`` of 1-D and 2-D operands, or of G row groups and a stack of
    G matrices.

    Vectors and matrices multiply as in NumPy. A 3-D ``b`` ``(G, k, m)``
    takes an ``a`` of G groups of n rows, as ``(G, n, k)`` or as its
    ``(G * n, k)`` reshape: group g of the result is group g of ``a`` times
    ``b[g]``, one NumPy call for all groups, and the result keeps ``a``'s
    rank, ``(G, n, m)`` or ``(G * n, m)``. The two layouts give the same
    bytes, and with G = 1 those of the 2-D product with ``b[0]``.
    """
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.data, b.data
    if bv.ndim == 3:
        groups, k, m = bv.shape
        if not groups or av.ndim not in (2, 3) or av.shape[-1] != k or \
                (av.shape[0] != groups if av.ndim == 3
                 else av.shape[0] % groups):
            raise ShapeError(
                f"matmul: a stack (G, k, m) needs (G, n, k) or (G * n, k) "
                f"rows, got {av.shape} and {bv.shape}")
        n = av.shape[-2] if av.ndim == 3 else av.shape[0] // groups
        a3 = av.reshape(groups, n, k)
        return _trace("matmul", (a3 @ bv).reshape(av.shape[:-1] + (m,)),
                      (a, b),
                      lambda g: (g.reshape(groups, n, m) @ bv.swapaxes(1, 2)
                                 ).reshape(av.shape),
                      lambda g: a3.swapaxes(1, 2) @ g.reshape(groups, n, m))
    if av.ndim == 0 or bv.ndim == 0:
        raise ShapeError(f"matmul: operands must be at least 1-D, got {av.shape} and {bv.shape}")
    if av.ndim > 2 or bv.ndim > 2:
        raise ShapeError(f"matmul: operands must be at most 2-D unless b is a (G, k, m) "
                         f"stack, got {av.shape} and {bv.shape}")
    if av.shape[-1] != (bv.shape[0] if bv.ndim >= 1 else None):
        raise ShapeError(f"matmul: inner dimensions differ, {av.shape} @ {bv.shape}")
    out = av @ bv

    def vjp_a(g):
        if bv.ndim == 1:  # each row of the gradient is g_i * b, an outer product
            return np.multiply.outer(g, bv)
        a2, b2 = _as_matrices(av, bv)
        return (g.reshape(len(a2), b2.shape[1]) @ b2.T).reshape(av.shape)

    def vjp_b(g):
        a2, b2 = _as_matrices(av, bv)
        return (a2.T @ g.reshape(len(a2), b2.shape[1])).reshape(bv.shape)

    return _trace("matmul", out, (a, b), vjp_a, vjp_b)


def linear(x, w, b=None) -> Tensor:
    """``x @ w.T + b`` of rows x (n, k), weights w (m, k) and an optional
    bias b (m,), as one node.

    The weights' gradient is ``(x.T @ g).T``, a transposed view, not
    ``g.T @ x``: OpenBLAS gives the two different last bits for some
    shapes (k = 257, for one), and this form keeps every gradient equal to
    that of ``x @ w.T`` written as a ``matmul`` of a transposed view.
    """
    x, w = as_tensor(x), as_tensor(w)
    xv, wv = x.data, w.data
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[1]:
        raise ShapeError(f"linear: needs x (n, k) and w (m, k), got {xv.shape} and {wv.shape}")
    out = xv @ wv.T
    if b is None:
        return _trace("linear", out, (x, w),
                      lambda g: g @ wv, lambda g: (xv.T @ g).T)
    b = as_tensor(b)
    if b.data.shape != (wv.shape[0],):
        raise ShapeError(f"linear: bias must be {(wv.shape[0],)} for w {wv.shape}, "
                         f"got {b.data.shape}")
    out += b.data
    sb = b.data.shape
    return _trace("linear", out, (x, w, b),
                  lambda g: g @ wv, lambda g: (xv.T @ g).T, lambda g: _unbroadcast(g, sb))


# ---------------------------------------------------------------------------
# structure


def _slicer(ndim: int, axis: int, start: int, stop: int) -> tuple:
    sl = [slice(None)] * ndim
    sl[axis] = slice(start, stop)
    return tuple(sl)


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
    if not _OPEN.tapes:
        return Tensor(out)
    bounds = [0, *accumulate(p.data.shape[axis] for p in parts)]
    return _trace("concat", out, parts,
                  *(itemgetter(_slicer(nd, axis, lo, hi)) for lo, hi in zip(bounds, bounds[1:])))


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape
    if start < 0 or start + length > shape[axis]:
        raise ShapeError(f"narrow: [{start}:{start + length}] outside axis {axis} of {shape}")
    sl = _slicer(len(shape), axis, start, start + length)
    out = a.data[sl].copy()

    def vjp(g):
        full = np.zeros(shape)
        full[sl] = g
        return full

    return _trace("narrow", out, (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: {a.data.shape} to {tuple(shape)}") from exc
    sa = a.data.shape
    # a view of the operand: no caller writes into the result or mutates
    # an operand it has reshaped; a strided result is copied to C order
    if not out.flags.c_contiguous:
        out = out.copy()
    return _trace("reshape", out, (a,), lambda g: g.reshape(sa))


# ---------------------------------------------------------------------------
# reductions


def mean(a, axis: int) -> Tensor:
    a = as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"mean: axis {axis} outside shape {a.data.shape}")
    axis = axis % a.data.ndim
    sa = a.data.shape
    return _trace("mean", a.data.mean(axis=axis), (a,),
                  lambda g: np.broadcast_to(np.expand_dims(g, axis) / sa[axis], sa).copy())


def tsum(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    if axis is not None and not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"sum: axis {axis} outside shape {a.data.shape}")
    sa = a.data.shape
    if axis is not None:
        axis = axis % a.data.ndim
    return _trace("sum", a.data.sum(axis=axis), (a,),
                  lambda g: np.broadcast_to(g if axis is None else np.expand_dims(g, axis),
                                            sa).copy())


# ---------------------------------------------------------------------------
# nonlinearities


def softmax(a, axis: int = -1) -> Tensor:
    """Stable softmax along one axis; invariant to a constant shift."""
    a = as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"softmax: axis {axis} outside shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    return _trace("softmax", s, (a,),
                  lambda g: (g - (g * s).sum(axis=axis, keepdims=True)) * s)


def _unary(op: str, a, fwd, bwd) -> Tensor:
    a = as_tensor(a)
    x = a.data
    y = fwd(x)
    return _trace(op, y, (a,), lambda g: bwd(g, x, y))


def tanh(a) -> Tensor:
    return _unary("tanh", a, np.tanh, lambda g, x, y: g * (1.0 - y * y))


def relu(a) -> Tensor:
    return _unary("relu", a, lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (x > 0.0))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


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
    """LSTM recurrence of B sequences over a (T, B, 4h) input sequence.

    ``z[t, b]`` holds the input pre-activations of sequence b at step t.
    Gates are ordered i, f, g, o. Step t adds ``w_hh @ h_{t-1}`` to each
    row of ``z[t]``; then c_t = f * c_{t-1} + i * g and h_t = o * tanh(c_t).
    ``state`` is the (B, 2h) carry, row b = [h_0, c_0] of sequence b.
    Returns (T, B, 2h) with ``out[t, b]`` equal to [h_t, c_t], so the last
    step is the carry of a following call; T chained one-step calls give
    bit-identical rows. The backward pass is backpropagation through time
    over the saved gate activations; it runs once per output gradient and
    yields all three operands' gradients.
    """
    z, w_hh, state = as_tensor(z), as_tensor(w_hh), as_tensor(state)
    zv, wv, sv = z.data, w_hh.data, state.data
    if zv.ndim != 3 or min(zv.shape[:2]) < 1 or zv.shape[2] % 4 != 0:
        raise ShapeError(
            f"lstm: pre-activations must be (T >= 1, B >= 1, 4h), got {zv.shape}")
    steps, batch, h = zv.shape[0], zv.shape[1], zv.shape[2] // 4
    if wv.shape != (4 * h, h) or sv.shape != (batch, 2 * h):
        raise ShapeError(
            f"lstm: with {zv.shape} pre-activations w_hh must be {(4 * h, h)} and "
            f"state {(batch, 2 * h)}, got {wv.shape} and {sv.shape}")
    out = np.empty((steps, batch, 2 * h))
    acts = np.empty((steps, batch, 4 * h))
    hidden, cell = sv[:, :h], sv[:, h:]
    for t in range(steps):
        a = zv[t] + hidden @ wv.T
        act = acts[t]
        act[:] = _sigmoid(a)
        act[:, 2 * h:3 * h] = np.tanh(a[:, 2 * h:3 * h])
        cell = act[:, h:2 * h] * cell + act[:, :h] * act[:, 2 * h:3 * h]
        hidden = act[:, 3 * h:] * np.tanh(cell)
        out[t, :, :h] = hidden
        out[t, :, h:] = cell
    if not _OPEN.tapes:
        return Tensor(out)
    memo = [None, None]  # the output gradient last seen and its three gradients

    def bptt(g):
        if memo[0] is not g:
            memo[:] = g, _lstm_bptt(g, sv, wv, out, acts)
        return memo[1]

    return _trace("lstm", out, (z, w_hh, state),
                  lambda g: bptt(g)[0], lambda g: bptt(g)[1], lambda g: bptt(g)[2])


def _lstm_bptt(g, sv, wv, out, acts) -> tuple:
    """Gradients of ``lstm``'s pre-activations, ``w_hh`` and carry for the
    output gradient g, by backpropagation through time.

    All four gates of step t take one expression,
    ``dz[t] = ((d * k1[t]) * k2[t]) * k3[t]`` with d = [dc, dc, dc, dh],
    k1 = [g, c_prev, i, tanh c], k2 = [i, f, 1 - g^2, o] and
    k3 = [1 - i, 1 - f, 1, 1 - o]. Each gate multiplies its factors in
    the order of a gate-by-gate loop, and the g gate's third factor is an
    exact 1, so the result equals that loop's to the bit
    (``tests/support.py::loop_lstm_bptt``). The factors do not depend on
    the gradient, so they are built for all steps before the loop, which
    does about a dozen array operations a step.
    """
    steps, batch, h2 = out.shape
    h = h2 // 2
    prev = np.concatenate([sv[None], out[:-1]])  # carry entering each step
    tanh_c = np.tanh(out[:, :, h:])
    i, f = acts[:, :, :h], acts[:, :, h:2 * h]
    gg, o = acts[:, :, 2 * h:3 * h], acts[:, :, 3 * h:]
    k1 = np.concatenate([gg, prev[:, :, h:], i, tanh_c], axis=2)
    k2 = np.concatenate([i, f, 1.0 - gg * gg, o], axis=2)
    k3 = np.concatenate([1.0 - i, 1.0 - f, np.ones_like(gg), 1.0 - o], axis=2)
    dtanh = 1.0 - tanh_c * tanh_c
    dz = np.empty((steps, batch, 4 * h))
    d = np.empty((batch, 4, h))  # [dc, dc, dc, dh] per sequence
    flat_d = d.reshape(batch, 4 * h)
    dh = np.zeros((batch, h))
    dc = np.zeros((batch, h))
    for t in range(steps - 1, -1, -1):
        dh = g[t, :, :h] + dh
        dc = g[t, :, h:] + dc + dh * o[t] * dtanh[t]
        d[:, :3] = dc[:, None]
        d[:, 3] = dh
        dzt = dz[t]
        np.multiply(flat_d, k1[t], out=dzt)
        dzt *= k2[t]
        dzt *= k3[t]
        dh = dzt @ wv
        dc = dc * f[t]
    dw = dz.reshape(-1, 4 * h).T @ prev[:, :, :h].reshape(-1, h)
    return dz, dw, np.concatenate([dh, dc], axis=1)


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

    def vjp(g):
        p = e / total[:, None]
        p[rows, idx] -= 1.0
        return p * (g / len(rows))

    return _trace("softmax_nll", out, (x,), vjp)


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
    n = xv.size
    return _trace("gaussian_nll", out, (mu, var),
                  lambda g: g / n * r / vv,
                  lambda g: g / n * 0.5 * (1.0 - r * r / vv) / vv)


# Closed set of differentiable primitives. Tests iterate over this registry,
# so extending the engine without extending the gradient check fails loudly.
DIFFERENTIABLE_PRIMITIVES: dict[str, Callable] = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "div": div,
    "matmul": matmul,
    "linear": linear,
    "concat": concat,
    "narrow": narrow,
    "reshape": reshape,
    "mean": mean,
    "sum": tsum,
    "softmax": softmax,
    "tanh": tanh,
    "relu": relu,
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
        """The largest error; NaN if any error is NaN."""
        return float(np.max(list(self.max_rel_err.values()), initial=0.0))


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
    central differences bottom out in roundoff. A non-finite error fails.
    """
    with Tape() as tape:
        loss = f()
    analytic = tape.gradients(loss)
    report = GradCheckReport(tol=tol)
    for name, p in params.items():
        a = analytic.get(p)
        if a is None:
            a = np.zeros_like(p.data)
        errors = []
        for idx in np.ndindex(p.data.shape):
            orig = p.data[idx]
            p.data[idx] = orig + eps
            up = float(f().data)
            p.data[idx] = orig - eps
            down = float(f().data)
            p.data[idx] = orig
            numeric = (up - down) / (2.0 * eps)
            ai = float(a[idx])
            errors.append(abs(ai - numeric) / max(abs(ai), abs(numeric), 1.0))
        # np.max keeps a NaN, which no comparison with tol would catch
        worst = float(np.max(errors, initial=0.0))
        report.max_rel_err[name] = worst
        if not worst <= tol:
            report.passed = False
    return report
