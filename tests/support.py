"""Independent reference implementations shared across test modules.

Everything here is written from first principles (loops, recursion,
exhaustive enumeration) so it cannot inherit a bug from the package code it
is used to check.
"""

from __future__ import annotations

import numpy as np

from gazelab.tensor import (
    DIFFERENTIABLE_PRIMITIVES,
    Tensor,
    concat,
    div,
    gaussian_nll,
    lstm,
    matmul,
    mean,
    mul,
    narrow,
    neg,
    pick,
    relu,
    reshape,
    sigmoid,
    softmax,
    softmax_nll,
    softplus,
    sub,
    tanh,
    transpose,
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
    Returns {name: (f, params)} suitable for gazelab.tensor.grad_check;
    every f is deterministic (random readout weights are frozen at build
    time). Inputs for kinked or domain-limited ops are kept away from the
    nonsmooth set so central differences are valid.
    """
    rng = np.random.default_rng(seed)

    def dims(k=2, lo=1, hi=5):
        return tuple(int(d) for d in rng.integers(lo, hi, size=k))

    def t(shape):
        return Tensor(rng.normal(size=shape), trainable=True)

    def reader(shape):
        r = Tensor(rng.normal(size=shape))
        return lambda out: tsum(mul(out, r))

    cases = {}

    m, n = dims()
    x, y, rd = t((m, n)), t((n,)), reader((m, n))
    cases["add"] = (lambda x=x, y=y, rd=rd: rd(x + y), {"x": x, "y": y})

    m, n = dims()
    x, y, rd = t((m, n)), t((m, n)), reader((m, n))
    cases["sub"] = (lambda x=x, y=y, rd=rd: rd(sub(x, y)), {"x": x, "y": y})

    m, n = dims()
    x, y, rd = t((m, 1)), t((m, n)), reader((m, n))
    cases["mul"] = (lambda x=x, y=y, rd=rd: rd(mul(x, y)), {"x": x, "y": y})

    m, n = dims()
    x = t((m, n))
    y = Tensor(np.abs(rng.normal(size=(m, n))) + 0.5, trainable=True)
    rd = reader((m, n))
    cases["div"] = (lambda x=x, y=y, rd=rd: rd(div(x, y)), {"x": x, "y": y})

    (k,) = dims(1)
    x, rd = t((k,)), reader((k,))
    cases["neg"] = (lambda x=x, rd=rd: rd(neg(x)), {"x": x})

    m, n, p = dims(3)
    a, b, rd = t((m, n)), t((n, p)), reader((m, p))
    cases["matmul"] = (lambda a=a, b=b, rd=rd: rd(matmul(a, b)), {"a": a, "b": b})

    m, n = dims()
    x, rd = t((m, n)), reader((n, m))
    cases["transpose"] = (lambda x=x, rd=rd: rd(transpose(x)), {"x": x})

    m, n = dims()
    x, y, rd = t((m, n)), t((m + 1, n)), reader((2 * m + 1, n))
    cases["concat"] = (lambda x=x, y=y, rd=rd: rd(concat([x, y], axis=0)), {"x": x, "y": y})

    m, n = dims(lo=2)
    x = t((m, n))
    start = int(rng.integers(0, n))
    length = int(rng.integers(1, n - start + 1))
    rd = reader((m, length))
    cases["narrow"] = (lambda x=x, rd=rd, s=start, L=length: rd(narrow(x, 1, s, L)), {"x": x})

    m, n = dims()
    x, rd = t((m, n)), reader((n, m))
    cases["reshape"] = (lambda x=x, rd=rd, m=m, n=n: rd(reshape(x, (n, m))), {"x": x})

    m, n = dims()
    x = t((m, n))
    idx = (int(rng.integers(0, m)), int(rng.integers(0, n)))
    cases["pick"] = (lambda x=x, idx=idx: mul(pick(x, idx), 3.0), {"x": x})

    shape = dims(3)
    axis = int(rng.integers(0, 3))
    x = t(shape)
    rd = reader(tuple(d for i, d in enumerate(shape) if i != axis))
    cases["mean"] = (lambda x=x, rd=rd, axis=axis: rd(mean(x, axis)), {"x": x})

    m, n = dims()
    ax = int(rng.integers(0, 2))
    x, rd = t((m, n)), reader((n,) if ax == 0 else (m,))
    cases["sum"] = (lambda x=x, rd=rd, ax=ax: rd(tsum(x, axis=ax)), {"x": x})

    m, n = dims(lo=2)
    x, rd = t((m, n)), reader((m, n))
    cases["softmax"] = (lambda x=x, rd=rd: rd(softmax(x, axis=-1)), {"x": x})

    for name, op in (("tanh", tanh), ("sigmoid", sigmoid), ("softplus", softplus)):
        m, n = dims()
        x, rd = t((m, n)), reader((m, n))
        cases[name] = (lambda x=x, op=op, rd=rd: rd(op(x)), {"x": x})

    m, n = dims()
    raw = rng.normal(size=(m, n))
    raw = np.where(np.abs(raw) < 0.1, 0.3, raw)  # keep clear of the kink
    x = Tensor(raw, trainable=True)
    rd = reader((m, n))
    cases["relu"] = (lambda x=x, rd=rd: rd(relu(x)), {"x": x})

    steps, h = dims(2, 1, 4)
    z, w_hh, state = t((steps, 4 * h)), t((4 * h, h)), t((2 * h,))
    rd = reader((steps, 2 * h))
    cases["lstm"] = (lambda z=z, w=w_hh, s=state, rd=rd: rd(lstm(z, w, s)),
                     {"z": z, "w_hh": w_hh, "state": state})

    m, n = dims(lo=2)
    x = t((m, n))
    targets = rng.integers(0, n, size=m)
    cases["softmax_nll"] = (lambda x=x, c=targets: softmax_nll(x, c), {"x": x})

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

    ta = quantize(a, cfg.sm_grid, cfg.sm_tbin).tokens
    tb = quantize(b, cfg.sm_grid, cfg.sm_tbin).tokens
    sub_matrix = substitution_matrix(cfg.sm_grid, cfg.aspect)
    score = plain_nw(ta, tb, sub_matrix, cfg.sm_gap)
    return min(max(score / max(len(ta), len(tb)), 0.0), 1.0)


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
        A = (p["W_a"] @ hid + p["b_a"]).reshape(n_maps, HW)
        if enable_fp:
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
