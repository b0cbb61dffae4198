"""Independent reference implementations shared across test modules.

Everything here is written from first principles (loops, recursion,
exhaustive enumeration) so it cannot inherit a bug from the package code it
is used to check.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from gazelab.analysis import (
    COMPARE_TOL,
    CategoryStats,
    CorrelationResult,
    GroupCompareResult,
    LoocvResult,
    ObserverFeature,
    RoiStats,
    _average_ranks,
)
from gazelab.optim import Adam
from gazelab.synthetic import CATEGORIES
from gazelab.tensor import (
    DIFFERENTIABLE_PRIMITIVES,
    Tape,
    Tensor,
    concat,
    div,
    gaussian_nll,
    linear,
    lstm,
    matmul,
    mean,
    mul,
    narrow,
    relu,
    reshape,
    softmax,
    softmax_nll,
    softplus,
    sub,
    tanh,
    tsum,
)


# ---------------------------------------------------------------------------
# linear algebra oracles


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a2 = a.reshape(1, -1) if a.ndim == 1 else a
    b2 = b.reshape(-1, 1) if b.ndim == 1 else b
    m, n = a2.shape
    n2, p = b2.shape
    assert n == n2
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            acc = 0.0
            for k in range(n):
                acc += a2[i, k] * b2[k, j]
            out[i, j] = acc
    if a.ndim == 1 and b.ndim == 1:
        return out.reshape(())
    if a.ndim == 1:
        return out.reshape(p)
    if b.ndim == 1:
        return out.reshape(m)
    return out


# ---------------------------------------------------------------------------
# gradient-check case table


def primitive_grad_cases(seed: int) -> dict:
    """One scalar-loss gradient-check case per differentiable primitive.

    Shapes are redrawn from the seed, so sweeping seeds sweeps shapes.
    Each case draws from its own generator, keyed by the seed and the case
    name, so adding or removing a case leaves the others' data unchanged.
    Returns {name: (f, params)} suitable for gazelab.tensor.grad_check;
    every f is deterministic (random readout weights are frozen at build
    time). Inputs for kinked or domain-limited ops are kept away from the
    nonsmooth set so central differences are valid.
    """
    rng = None

    def seed_case(name):
        nonlocal rng
        rng = np.random.default_rng([seed, *name.encode()])

    def dims(k=2, lo=1, hi=5):
        return tuple(int(d) for d in rng.integers(lo, hi, size=k))

    def t(shape):
        return Tensor(rng.normal(size=shape), trainable=True)

    def reader(shape):
        r = Tensor(rng.normal(size=shape))
        return lambda out: tsum(mul(out, r))

    cases = {}

    seed_case("add")
    m, n = dims()
    x, y, rd = t((m, n)), t((n,)), reader((m, n))
    cases["add"] = (lambda x=x, y=y, rd=rd: rd(x + y), {"x": x, "y": y})

    seed_case("sub")
    m, n = dims()
    x, y, rd = t((m, n)), t((m, n)), reader((m, n))
    cases["sub"] = (lambda x=x, y=y, rd=rd: rd(sub(x, y)), {"x": x, "y": y})

    seed_case("mul")
    m, n = dims()
    x, y, rd = t((m, 1)), t((m, n)), reader((m, n))
    cases["mul"] = (lambda x=x, y=y, rd=rd: rd(mul(x, y)), {"x": x, "y": y})

    seed_case("div")
    m, n = dims()
    x = t((m, n))
    y = Tensor(np.abs(rng.normal(size=(m, n))) + 0.5, trainable=True)
    rd = reader((m, n))
    cases["div"] = (lambda x=x, y=y, rd=rd: rd(div(x, y)), {"x": x, "y": y})

    seed_case("matmul")
    m, n, p = dims(3)
    a, b, rd = t((m, n)), t((n, p)), reader((m, p))
    # the stacked form (S, m, n) @ (S, n, p) on a generator of its own
    seed_case("matmul stacked")
    s, m3, n3, p3 = dims(4)
    a3, b3, rd3 = t((s, m3, n3)), t((s, n3, p3)), reader((s, m3, p3))
    # and the grouped form (G * m, n) @ (G, n, p), G >= 2, on a third
    seed_case("matmul grouped")
    groups, mg, ng, pg = dims(4, lo=2)
    ag, bg = t((groups * mg, ng)), t((groups, ng, pg))
    rdg = reader((groups * mg, pg))
    cases["matmul"] = (
        lambda a=a, b=b, rd=rd, a3=a3, b3=b3, rd3=rd3, ag=ag, bg=bg, rdg=rdg:
            rd(matmul(a, b)) + rd3(matmul(a3, b3)) + rdg(matmul(ag, bg)),
        {"a": a, "b": b, "a3": a3, "b3": b3, "ag": ag, "bg": bg})

    seed_case("linear")
    n, k, m = dims(3)
    x, w, b = t((n, k)), t((m, k)), t((m,))
    rd, rd_bare = reader((n, m)), reader((n, m))
    cases["linear"] = (
        lambda x=x, w=w, b=b, rd=rd, rd_bare=rd_bare:
            rd(linear(x, w, b)) + rd_bare(linear(x, w)),
        {"x": x, "w": w, "b": b})

    seed_case("concat")
    m, n = dims()
    x, y, rd = t((m, n)), t((m + 1, n)), reader((2 * m + 1, n))
    cases["concat"] = (lambda x=x, y=y, rd=rd: rd(concat([x, y], axis=0)), {"x": x, "y": y})

    seed_case("narrow")
    m, n = dims(lo=2)
    x = t((m, n))
    start = int(rng.integers(0, n))
    length = int(rng.integers(1, n - start + 1))
    rd = reader((m, length))
    cases["narrow"] = (lambda x=x, rd=rd, s=start, L=length: rd(narrow(x, 1, s, L)), {"x": x})

    seed_case("reshape")
    m, n = dims()
    x, rd = t((m, n)), reader((n, m))
    cases["reshape"] = (lambda x=x, rd=rd, m=m, n=n: rd(reshape(x, (n, m))), {"x": x})

    seed_case("mean")
    shape = dims(3)
    axis = int(rng.integers(0, 3))
    x = t(shape)
    rd = reader(tuple(d for i, d in enumerate(shape) if i != axis))
    cases["mean"] = (lambda x=x, rd=rd, axis=axis: rd(mean(x, axis)), {"x": x})

    seed_case("sum")
    m, n = dims()
    ax = int(rng.integers(0, 2))
    x, rd = t((m, n)), reader((n,) if ax == 0 else (m,))
    cases["sum"] = (lambda x=x, rd=rd, ax=ax: rd(tsum(x, axis=ax)), {"x": x})

    seed_case("softmax")
    m, n = dims(lo=2)
    x, rd = t((m, n)), reader((m, n))
    cases["softmax"] = (lambda x=x, rd=rd: rd(softmax(x, axis=-1)), {"x": x})

    for name, op in (("tanh", tanh), ("softplus", softplus)):
        seed_case(name)
        m, n = dims()
        x, rd = t((m, n)), reader((m, n))
        cases[name] = (lambda x=x, op=op, rd=rd: rd(op(x)), {"x": x})

    seed_case("relu")
    m, n = dims()
    raw = rng.normal(size=(m, n))
    raw = np.where(np.abs(raw) < 0.1, 0.3, raw)  # keep clear of the kink
    x = Tensor(raw, trainable=True)
    rd = reader((m, n))
    cases["relu"] = (lambda x=x, rd=rd: rd(relu(x)), {"x": x})

    seed_case("lstm")
    steps, h = dims(2, 1, 4)
    batch = int(rng.integers(2, 4))
    z, w_hh = t((steps, batch, 4 * h)), t((4 * h, h))
    state = t((batch, 2 * h))
    rd = reader((steps, batch, 2 * h))
    cases["lstm"] = (lambda z=z, w=w_hh, s=state, rd=rd: rd(lstm(z, w, s)),
                     {"z": z, "w_hh": w_hh, "state": state})

    seed_case("softmax_nll")
    m, n = dims(lo=2)
    x = t((m, n))
    targets = rng.integers(0, n, size=m)
    cases["softmax_nll"] = (lambda x=x, c=targets: softmax_nll(x, c), {"x": x})

    seed_case("gaussian_nll")
    (k,) = dims(1)
    mu = t((k,))
    var = Tensor(np.abs(rng.normal(size=k)) + 0.5, trainable=True)
    target = rng.normal(size=k)
    cases["gaussian_nll"] = (lambda mu=mu, var=var, x=target: gaussian_nll(mu, var, x),
                             {"mu": mu, "var": var})

    missing = set(DIFFERENTIABLE_PRIMITIVES) - set(cases)
    assert not missing, f"gradient-check cases missing for primitives: {sorted(missing)}"
    return cases


# ---------------------------------------------------------------------------
# LSTM backward oracle


def loop_lstm_bptt(z, w_hh, state, out, g) -> tuple:
    """Gradients (dz, dw_hh, dstate) of ``lstm(z, w_hh, state)``, whose
    output is ``out``, for the output gradient g: backpropagation through
    time with each gate's gradient written out step by step.

    The gate activations are recomputed from the carries in ``out`` with
    the engine's logistic form 0.5 * (1 + tanh(x / 2)), so they are the
    forward pass's values to the bit.
    """
    steps, batch, h4 = z.shape
    h = h4 // 4
    prev = np.concatenate([state[None], out[:-1]])  # carry entering each step
    tanh_c = np.tanh(out[:, :, h:])
    dz = np.empty((steps, batch, 4 * h))
    dh = np.zeros((batch, h))
    dc = np.zeros((batch, h))
    for t in range(steps - 1, -1, -1):
        a = z[t] + prev[t, :, :h] @ w_hh.T
        i = 0.5 * (1.0 + np.tanh(0.5 * a[:, :h]))
        f = 0.5 * (1.0 + np.tanh(0.5 * a[:, h:2 * h]))
        gg = np.tanh(a[:, 2 * h:3 * h])
        o = 0.5 * (1.0 + np.tanh(0.5 * a[:, 3 * h:]))
        dh = g[t, :, :h] + dh
        dc = g[t, :, h:] + dc + dh * o * (1.0 - tanh_c[t] * tanh_c[t])
        dz[t, :, :h] = dc * gg * i * (1.0 - i)
        dz[t, :, h:2 * h] = dc * prev[t, :, h:] * f * (1.0 - f)
        dz[t, :, 2 * h:3 * h] = dc * i * (1.0 - gg * gg)
        dz[t, :, 3 * h:] = dh * tanh_c[t] * o * (1.0 - o)
        dh = dz[t] @ w_hh
        dc = dc * f
    dw = dz.reshape(-1, 4 * h).T @ prev[:, :, :h].reshape(-1, h)
    return dz, dw, np.concatenate([dh, dc], axis=1)


# ---------------------------------------------------------------------------
# optimizer oracle


class PerArrayAdam:
    """Adam with decoupled weight decay, one array at a time.

    Each parameter keeps its own moments and its own update expression,
    so this checks the flat-buffer update's arithmetic and its runs of
    step sizes. ``step`` takes a name-keyed gradient map.
    """

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0, lr_scale=None):
        self.params = dict(params)
        self.lr, self.eps, self.weight_decay = lr, eps, weight_decay
        self.beta1, self.beta2 = betas
        self.lr_scale = dict(lr_scale or {})
        self.m = {name: np.zeros_like(p) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p) for name, p in self.params.items()}
        self.t = 0

    def step(self, grads) -> None:
        self.t += 1
        for name, p in self.params.items():
            g = grads[name]
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**self.t)
            v_hat = v / (1.0 - self.beta2**self.t)
            lr = self.lr * self.lr_scale.get(name, 1.0)
            p -= lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                       + self.weight_decay * p)


# ---------------------------------------------------------------------------
# analysis oracles: the permutation tests and the LOOCV classifier one
# permutation, one split and one fold at a time


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    return float(da @ db / np.sqrt((da @ da) * (db @ db)))


def _exceeds(value: float, observed: float, alternative: str) -> bool:
    if alternative == "greater":
        return value >= observed - COMPARE_TOL
    if alternative == "less":
        return value <= observed + COMPARE_TOL
    return abs(value) >= abs(observed) - COMPARE_TOL


def scalar_welch_t(a: np.ndarray, b: np.ndarray) -> float:
    """Welch's t of two 1-D samples; zero for identical constants."""
    diff = a.mean() - b.mean()
    denom = math.sqrt(a.var(ddof=1) / a.shape[0] + b.var(ddof=1) / b.shape[0])
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return float(diff / denom)


def loop_spearman_rho(x, y, alternative="greater", n_permutations=10000,
                      seed=0) -> CorrelationResult:
    """``analysis.spearman_rho`` scoring one permutation per Pearson call."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if np.all(x == x[0]) or np.all(y == y[0]):
        return CorrelationResult(rho=0.0, p_value=1.0, degenerate=True,
                                 method="degenerate", n_permutations=0)
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rho = _pearson(rx, ry)
    if math.factorial(n) <= n_permutations:
        hits = 0
        total = 0
        for perm in itertools.permutations(range(n)):
            hits += _exceeds(_pearson(rx, ry[list(perm)]), rho, alternative)
            total += 1
        return CorrelationResult(rho=rho, p_value=hits / total,
                                 degenerate=False, method="exact",
                                 n_permutations=total)
    rng = np.random.default_rng([seed, 37])
    hits = 0
    for _ in range(n_permutations):
        hits += _exceeds(_pearson(rx, rng.permutation(ry)), rho, alternative)
    return CorrelationResult(rho=rho,
                             p_value=(hits + 1) / (n_permutations + 1),
                             degenerate=False, method="sampled",
                             n_permutations=n_permutations)


def loop_group_compare(values_a, values_b, n_permutations=10000,
                       seed=0) -> GroupCompareResult:
    """``analysis.group_compare`` scoring one split per Welch call."""
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    t_obs = scalar_welch_t(a, b)
    pooled = np.concatenate([a, b])
    n = pooled.shape[0]
    k = a.shape[0]
    total = math.comb(n, k)
    if total <= n_permutations:
        hits = 0
        for picked in itertools.combinations(range(n), k):
            mask = np.zeros(n, dtype=bool)
            mask[list(picked)] = True
            hits += _exceeds(scalar_welch_t(pooled[mask], pooled[~mask]), t_obs,
                             "two-sided")
        return GroupCompareResult(t=t_obs, p_value=hits / total,
                                  method="exact", n_permutations=total)
    rng = np.random.default_rng([seed, 41])
    hits = 0
    for _ in range(n_permutations):
        perm = rng.permutation(n)
        hits += _exceeds(scalar_welch_t(pooled[perm[:k]], pooled[perm[k:]]), t_obs,
                         "two-sided")
    return GroupCompareResult(t=t_obs,
                              p_value=(hits + 1) / (n_permutations + 1),
                              method="sampled",
                              n_permutations=n_permutations)


def loop_classify_group_loocv(features, labels, hidden=16, epochs=200,
                              lr=0.001, seed=0) -> LoocvResult:
    """``analysis.classify_group_loocv`` training one fold at a time, each
    with its own tape per epoch and its own Adam."""
    rows = [f.v if isinstance(f, ObserverFeature) else np.asarray(f, float)
            for f in features]
    X = np.stack(rows).astype(float)
    n, dim = X.shape
    classes = tuple(sorted(set(labels)))
    y = np.array([classes.index(lab) for lab in labels], dtype=float)

    predictions = []
    probabilities = []
    for fold in range(n):
        train = np.arange(n) != fold
        mu = X[train].mean(axis=0)
        sd = X[train].std(axis=0)
        sd = np.where(sd == 0.0, 1.0, sd)
        Xz = (X - mu) / sd
        rng = np.random.default_rng([seed, 43, fold])
        params = {
            "W1": Tensor(rng.normal(0.0, 1.0 / np.sqrt(dim), (hidden, dim)),
                         trainable=True),
            "b1": Tensor(np.zeros(hidden), trainable=True),
            "W2": Tensor(rng.normal(0.0, 1.0 / np.sqrt(hidden), (hidden, 1)),
                         trainable=True),
            "b2": Tensor(np.zeros(1), trainable=True),
        }
        opt = Adam(params, lr=lr, weight_decay=0.0)
        y_train = y[train]
        n_pos = y_train.sum()
        n_neg = y_train.shape[0] - n_pos
        if n_pos > 0 and n_neg > 0:
            weights = np.where(y_train == 1.0,
                               y_train.shape[0] / (2.0 * n_pos),
                               y_train.shape[0] / (2.0 * n_neg))
        else:
            weights = np.ones(y_train.shape[0])
        Xt = Tensor(Xz[train])
        Yt = Tensor(y_train[:, None])
        Wt = Tensor(weights[:, None])
        for _ in range(epochs):
            with Tape() as tape:
                H = tanh(linear(Xt, params["W1"], params["b1"]))
                Z = matmul(H, params["W2"]) + params["b2"]
                loss = tsum(Wt * (softplus(Z) - Yt * Z)) / float(train.sum())
            opt.step(tape.gradients(loss))
        h = tanh(matmul(params["W1"], Tensor(Xz[fold])) + params["b1"])
        z = matmul(params["W2"].data.T, h) + params["b2"]
        prob = float((0.5 * (1.0 + np.tanh(0.5 * z.data)))[0])
        predictions.append(classes[int(prob >= 0.5)])
        probabilities.append(prob)

    truth = [classes[int(v)] for v in y]
    accuracy = 100.0 * float(np.mean([p == t for p, t in
                                      zip(predictions, truth)]))
    return LoocvResult(accuracy=accuracy, predictions=predictions,
                       probabilities=probabilities, classes=classes)


# ---------------------------------------------------------------------------
# grid oracle


def loop_grid_cell(x: float, y: float, height: int, width: int) -> int:
    """Row-major cell of (x, y) on a height x width grid of the unit square,
    written out: floor each scaled coordinate, then fold the closed upper
    edge (a coordinate of exactly 1) into the last row or column."""
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"grid_cell: coordinates ({x}, {y}) outside [0, 1]")
    row = math.floor(y * height)
    col = math.floor(x * width)
    if row == height:
        row = height - 1
    if col == width:
        col = width - 1
    return row * width + col


def oracle_cell_centers(height: int, width: int,
                        extent: tuple[float, float] = (1.0, 1.0)) -> np.ndarray:
    """(H*W, 2) centers of the row-major cells of a height x width grid over
    a screen extent[0] wide and extent[1] high, by the package's three
    former cell-center forms.

    ScanMatch's bin centers serve every extent: its column-major bins
    ``col * gy + row`` of a gx x gy grid are the row-major cells of this
    grid for gx = height and gy = width, with x and y swapped. On the unit
    square the generator's ``np.meshgrid`` grids and the samplers'
    ``divmod`` form must give the same floats, or AssertionError.
    """
    gx, gy, aw, ah = height, width, extent[1], extent[0]
    cols, rows = np.divmod(np.arange(gx * gy), gy)
    bins = np.stack([(cols + 0.5) * aw / gx, (rows + 0.5) * ah / gy], axis=1)
    table = bins[:, ::-1]
    if tuple(extent) == (1.0, 1.0):
        xs = (np.arange(width) + 0.5) / width
        ys = (np.arange(height) + 0.5) / height
        grid_x, grid_y = np.meshgrid(xs, ys)
        sampled = []
        for index in range(height * width):
            row, col = divmod(index, width)
            sampled.append(((col + 0.5) / width, (row + 0.5) / height))
        assert np.array_equal(np.stack([grid_x.ravel(), grid_y.ravel()], 1),
                              table)
        assert np.array_equal(np.array(sampled).reshape(-1, 2), table)
    return table


def loop_roi_stats(scanpaths, scenes) -> RoiStats:
    """``analysis.roi_stats`` of valid scanpaths, one fixation at a time:
    each fixation's cell by ``loop_grid_cell``, the elapsed time summed as
    the scanpath goes, and each mean over its values in scanpath order."""
    scene_by_id = {scene.id: scene for scene in scenes}
    fixations: dict[int, list] = {}  # observer -> [(category, dur_ms)]
    latencies: dict[int, dict[str, list]] = {}
    for sp in scanpaths:
        mask = scene_by_id[sp.image_id].roi_mask
        obs = sp.observer_id
        fixations.setdefault(obs, [])
        latencies.setdefault(obs, {cat: [] for cat in CATEGORIES})
        elapsed, first_hit = 0.0, {}
        for fix in sp.fixations:
            cell = loop_grid_cell(fix.x, fix.y, *mask.shape)
            cat = CATEGORIES[mask.flat[cell]]
            fixations[obs].append((cat, fix.dur_ms))
            first_hit.setdefault(cat, elapsed)
            elapsed += fix.dur_ms
        for cat, latency in first_hit.items():
            latencies[obs][cat].append(latency)
    per_observer = {}
    for obs in sorted(fixations):
        stats = {}
        for cat in CATEGORIES:
            durs = [dur for c, dur in fixations[obs] if c == cat]
            lats = latencies[obs][cat]
            stats[cat] = CategoryStats(
                proportion=len(durs) / len(fixations[obs]),
                latency_ms=float(np.mean(lats)) if lats else None,
                mean_duration_ms=float(np.mean(durs)) if durs else None)
        per_observer[obs] = stats
    return RoiStats(per_observer=per_observer)


def read_pgm(path) -> np.ndarray:
    """The pixels of a PGM written by ``formats.write_pgm`` (binary 8-bit,
    one header), as floats."""
    magic, size, maxval, pixels = Path(path).read_bytes().split(b"\n", 3)
    assert (magic, maxval) == (b"P5", b"255")
    w, h = map(int, size.split())
    assert len(pixels) == w * h
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w).astype(float)


# ---------------------------------------------------------------------------
# alignment oracles


def enumerate_alignment_templates(m: int, n: int) -> list:
    """All global alignment paths of an m-token vs n-token sequence.

    A template is a list of (i, j) matched index pairs plus a gap count;
    generated by walking all interleavings of match / gap-a / gap-b moves.
    """
    templates = []

    def walk(i, j, matches, gaps):
        if i == m and j == n:
            templates.append((tuple(matches), gaps))
            return
        if i < m and j < n:
            walk(i + 1, j + 1, matches + [(i, j)], gaps)
        if i < m:
            walk(i + 1, j, matches, gaps + 1)
        if j < n:
            walk(i, j + 1, matches, gaps + 1)

    walk(0, 0, [], 0)
    return templates


def brute_force_nw(a, b, sub_score, gap: float) -> float:
    """Best global alignment score by exhaustive path enumeration."""
    best = -np.inf
    for matches, gaps in enumerate_alignment_templates(len(a), len(b)):
        score = gaps * gap
        for i, j in matches:
            score += sub_score(a[i], b[j])
        if score > best:
            best = score
    return best


def plain_nw(a, b, sub_matrix, gap: float) -> float:
    """Needleman-Wunsch by the row-by-row table recurrence, one cell a step."""
    prev = [j * gap for j in range(len(b) + 1)]
    for i in range(1, len(a) + 1):
        cur = [i * gap] + [0.0] * len(b)
        for j in range(1, len(b) + 1):
            diag = prev[j - 1] + sub_matrix[a[i - 1]][b[j - 1]]
            up = prev[j] + gap
            left = cur[j - 1] + gap
            best = diag if diag >= up else up
            cur[j] = left if left > best else best
        prev = cur
    return prev[len(b)]


def plain_scanmatch(a, b, cfg) -> float:
    """ScanMatch of one pair through ``plain_nw``."""
    from gazelab.metrics import quantize, substitution_matrix

    ta = quantize(a, cfg.sm_grid, cfg.sm_tbin)
    tb = quantize(b, cfg.sm_grid, cfg.sm_tbin)
    sub_matrix = substitution_matrix(cfg.sm_grid, cfg.aspect)
    score = plain_nw(ta, tb, sub_matrix, cfg.sm_gap)
    return min(max(score / max(len(ta), len(tb)), 0.0), 1.0)


def plain_levenshtein(a, b) -> int:
    """Unit-cost edit distance, row by row."""
    n, m = len(a), len(b)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        ai = a[i - 1]
        for j in range(1, m + 1):
            cost = 0 if ai == b[j - 1] else 1
            cur[j] = min(prev[j - 1] + cost, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[m]


def naive_levenshtein(a, b) -> int:
    """Plain recursion, no memoization."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[0] == b[0] else 1
    return min(
        naive_levenshtein(a[1:], b) + 1,
        naive_levenshtein(a, b[1:]) + 1,
        naive_levenshtein(a[1:], b[1:]) + cost,
    )


def loop_multimatch(a, b, cfg=None):
    """MultiMatch scored one aligned index at a time on NumPy scalars.

    Shares the package's alignment, screen scale and canonical pair order,
    so it checks only the per-dimension arithmetic and its averaging.
    """
    from gazelab.metrics import (
        MetricConfig,
        MultiMatchResult,
        _canonical_key,
        _screen_scale,
        align_minimum_cost,
    )

    def angle_between(u, v):
        tu = np.arctan2(u[1], u[0])
        tv = np.arctan2(v[1], v[0])
        d = abs(tu - tv)
        return float(min(d, 2.0 * np.pi - d))

    cfg = cfg or MetricConfig()
    if _canonical_key(b) < _canonical_key(a):
        a, b = b, a
    scale = _screen_scale(cfg.aspect)
    pa, pb = a.xy() * scale, b.xy() * scale
    da, db = (np.array([f.dur_ms for f in sp.fixations]) for sp in (a, b))
    if len(a) < 2 or len(b) < 2:
        cost = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2))
        pairs = align_minimum_cost(cost)
        position = float(np.mean([1.0 - cost[i, j] / np.sqrt(2.0)
                                  for i, j in pairs]))
        duration = float(np.mean([1.0 - abs(da[i] - db[j]) / max(da[i], db[j])
                                  for i, j in pairs]))
        return MultiMatchResult(None, None, None, position, duration)
    va, vb = np.diff(pa, axis=0), np.diff(pb, axis=0)
    cost = np.sqrt(((va[:, None, :] - vb[None, :, :]) ** 2).sum(axis=2))
    shape, length, direction, position, duration = [], [], [], [], []
    for i, j in align_minimum_cost(cost):
        shape.append(1.0 - cost[i, j] / (2.0 * np.sqrt(2.0)))
        amp_a, amp_b = np.hypot(*va[i]), np.hypot(*vb[j])
        length.append(1.0 - abs(amp_a - amp_b) / np.sqrt(2.0))
        direction.append(1.0 - angle_between(va[i], vb[j]) / np.pi)
        position.append(1.0 - np.hypot(*(pa[i] - pb[j])) / np.sqrt(2.0))
        duration.append(1.0 - abs(da[i] - db[j]) / max(da[i], db[j]))
    return MultiMatchResult(*(float(np.mean(dim)) for dim in
                              (shape, length, direction, position, duration)))


def enumerate_monotone_pairings(m: int, n: int) -> list:
    """All monotone pairings of saccade indices from (0,0) to (m-1,n-1).

    Moves are right, down, and diagonal; every visited cell pairs the two
    indices. Used as the exhaustive oracle for the saccade alignment.
    """
    paths = []

    def walk(i, j, acc):
        if i == m - 1 and j == n - 1:
            paths.append(tuple(acc))
            return
        if i + 1 < m and j + 1 < n:
            walk(i + 1, j + 1, acc + [(i + 1, j + 1)])
        if i + 1 < m:
            walk(i + 1, j, acc + [(i + 1, j)])
        if j + 1 < n:
            walk(i, j + 1, acc + [(i, j + 1)])

    walk(0, 0, [(0, 0)])
    return paths


def reference_rollout(p, E, gt_cells, obs, hidden, n_maps,
                      enable_fi=True, enable_fp=True, use_u=True,
                      concat_onehot=False, ior_sigma=1.0):
    """Plain-numpy re-derivation of the teacher-forced forward pass.

    ``p`` maps parameter names to arrays; ``E`` is (C, H, W); ``gt_cells``
    are row-major cell indices; ``obs`` is the one-hot identity;
    ``ior_sigma`` is the inhibition-of-return width in cells. Spatial
    loops and logistic-form gates keep this independent of the engine's
    vectorized formulation. Returns per-step (m_t, mu, var).
    """
    C, H, W = E.shape
    HW = H * W
    h = hidden

    def soft(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    def logi(v):
        return 1.0 / (1.0 + np.exp(-v))

    Ef = np.zeros((HW, C))
    for r in range(H):
        for c in range(W):
            for ch in range(C):
                Ef[r * W + c, ch] = E[ch, r, c]

    u = p["W_u"] @ obs if use_u else None
    if enable_fi:
        scores = np.zeros(HW)
        for loc in range(HW):
            pre = p["W_eu"] @ Ef[loc]
            if u is not None:
                pre = pre + p["W_mu"] @ u
            scores[loc] = p["w_eu"] @ np.tanh(pre)
        m_u = soft(scores)

    m_prev = soft(p["m0_logits"])
    hid = np.zeros(h)
    carry = np.zeros(h)
    earlier = []
    out = []
    for gt_cell in gt_cells:
        X_t = Ef * m_prev[:, None]
        if enable_fi:
            X_u = Ef * m_u[:, None]
            X = np.concatenate([X_t, X_u], axis=1)
            u_s = np.maximum(p["W_hs"] @ X.mean(axis=1) + p["b_hs"], 0.0)
            u_c = np.maximum(p["W_hc"] @ X.mean(axis=0) + p["b_hc"], 0.0)
            if u is not None:
                u_s = u_s + p["W_us"] @ u
                u_c = u_c + p["W_uc"] @ u
            R = np.outer(u_s, u_c)
        else:
            R = X_t @ p["W_fi"] + p["b_fi"]
        x = R.mean(axis=0)
        if concat_onehot:
            x = np.concatenate([x, obs])
        z = p["W_ih"] @ x + p["W_hh"] @ hid + p["b_lstm"]
        gi, gf = logi(z[:h]), logi(z[h:2 * h])
        gg, go = np.tanh(z[2 * h:3 * h]), logi(z[3 * h:])
        carry = gf * carry + gi * gg
        hid = go * np.tanh(carry)
        if enable_fp:
            A = (p["W_a"] @ hid + p["b_a"]).reshape(n_maps, HW)
            q = (p["W_q"] @ hid + p["b_q"]).reshape(n_maps, C)
            for l in range(n_maps):
                for loc in range(HW):
                    A[l, loc] += q[l] @ Ef[loc]
            V = np.zeros((n_maps, C))
            for l in range(n_maps):
                V[l] = (Ef * A[l][:, None]).mean(axis=0)
            sc = np.zeros(n_maps)
            for l in range(n_maps):
                pre = p["W_b"] @ V[l]
                if u is not None:
                    pre = pre + p["W_um"] @ u
                sc[l] = p["w_b"] @ np.tanh(pre)
            beta = soft(sc)
            combined = np.zeros(HW)
            for l in range(n_maps):
                combined = combined + beta[l] * A[l]
            strength = np.logaddexp(0.0, p["b_ior"][0])
            for loc in range(HW):
                r, c = divmod(loc, W)
                for cell in earlier:
                    rf, cf = divmod(cell, W)
                    d2 = (r - rf) ** 2 + (c - cf) ** 2
                    combined[loc] -= strength * np.exp(
                        -d2 / (2 * ior_sigma ** 2))
            m_t = soft(combined)
        else:
            m_t = soft(p["W_fp"] @ hid + p["b_fp"])
        head = p["W_dur"] @ hid + p["b_dur"]
        mu = head[0]
        var = np.logaddexp(0.0, head[1]) + 1e-4
        out.append((m_t, mu, var))
        m_prev = np.zeros(HW)
        m_prev[gt_cell] = 1.0
        earlier.append(gt_cell)
    return out
