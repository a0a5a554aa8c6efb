"""Minimal reverse-mode differentiation over dense float64 arrays.

A :class:`Tape` records primitive applications in execution order while it
is active; :meth:`Tape.backward` replays the records once, in reverse,
accumulating vector-Jacobian products into the gradients of the
``requires_grad`` leaves. Without an active tape every primitive is a plain
numpy computation, which is the inference fast path.

Design constraints baked in here:

* double precision everywhere (low-temperature quantile relaxations are
  numerically delicate);
* gradients never flow through integer index sets (top-k selections and
  sort permutations are constants of the forward pass);
* ``l2_normalize`` adds ``EPS_NORM`` inside the square root so an all-zero
  input is well defined.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from rarecp.errors import NumericError

EPS_NORM = 1e-12

class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_produced")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._produced = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64, copy=True), requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _ActiveTapes(threading.local):
    """The tapes entered on the current thread, innermost last."""

    def __init__(self):
        self.stack: list[Tape] = []


_ACTIVE = _ActiveTapes()


class Tape:
    """Ordered record of primitive applications for one backward pass.

    A tape records only the primitives run on the thread that entered it,
    so threads can build and replay their own tapes at the same time.
    """

    def __init__(self):
        # each record: (output tensor, input tensors, vjp callable, None once backward used it)
        self.records: list[tuple[Tensor, tuple[Tensor, ...], Callable | None]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _ACTIVE.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.stack.pop()

    def backward(self, loss: Tensor) -> None:
        """Accumulate gradients of ``loss`` into every requires_grad leaf.

        Fan-out accumulates additively; records are visited exactly once in
        reverse execution order (which is a valid reverse topological order
        because an output cannot be consumed before it exists). Each VJP is
        released once it has run, with what it kept for the backward pass,
        so the pass holds less as it goes and a tape runs it once. A gradient
        sum is added to in place only once the backward pass owns it: an
        array it allocated for a sum, or one an accumulating partial (see
        ``_finish``) made. An array a VJP returns may be shared (``add``
        hands its upstream gradient to both inputs), so the first sum over
        it is out of place. Either way the sums are bitwise the out-of-place
        ones.
        """
        if loss.data.size != 1:
            raise ValueError("backward expects a scalar loss tensor")
        if self._spent:
            raise ValueError("backward runs once per tape: it released what the VJPs held")
        self._spent = True
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        tensors: dict[int, Tensor] = {id(loss): loss}
        owned: set[int] = set()
        for i in range(len(self.records) - 1, -1, -1):
            out, inputs, vjp = self.records[i]
            self.records[i] = (out, inputs, None)
            g = grads.pop(id(out), None)
            if g is None:
                continue
            owned.discard(id(out))
            for t, p in zip(inputs, vjp(g)):
                if p is None or not t.requires_grad:
                    continue
                key = id(t)
                held = grads.get(key)
                if callable(p):
                    mine = key in owned
                    grads[key] = p(held if mine else None)
                    if held is not None and not mine:
                        grads[key] += held
                    owned.add(key)
                elif held is None:
                    grads[key] = p
                elif key in owned:
                    grads[key] += p
                else:
                    grads[key] = held + p
                    owned.add(key)
                tensors[key] = t
            vjp = p = held = None  # let go of what the VJP kept before the next one runs
        for key, g in grads.items():
            t = tensors[key]
            if t.requires_grad and not t._produced:
                t.grad = g if t.grad is None else t.grad + g


def _recording(inputs: tuple[Tensor, ...]) -> bool:
    """Whether a primitive on ``inputs`` is recorded: a tape is active and an input needs a gradient."""
    return bool(_ACTIVE.stack) and any(t.requires_grad for t in inputs)


def _finish(out_data: np.ndarray, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    """``out_data`` as a tensor, recorded with its ``inputs`` and ``vjp`` when taped.

    ``vjp(g)`` gives one partial per input: None, an array, or an
    accumulating partial, a function ``add(acc)`` that returns ``acc`` plus
    the partial, written into ``acc``, or a new array when ``acc`` is None.
    It lets a large partial land in a gradient sum without a block of its own.
    """
    out = Tensor(out_data)
    if _recording(inputs):
        out.requires_grad = True
        out._produced = True
        _ACTIVE.stack[-1].records.append((out, inputs, vjp))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    raise ValueError(f"cannot reduce gradient of shape {g.shape} to {shape}")


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    ta, tb = as_tensor(a), as_tensor(b)
    out = ta.data + tb.data
    return _finish(
        out,
        (ta, tb),
        lambda g: (_unbroadcast(g, ta.data.shape), _unbroadcast(g, tb.data.shape)),
    )


def mul(a, b) -> Tensor:
    ta, tb = as_tensor(a), as_tensor(b)
    out = ta.data * tb.data
    return _finish(
        out,
        (ta, tb),
        lambda g: (
            _unbroadcast(g * tb.data, ta.data.shape),
            _unbroadcast(g * ta.data, tb.data.shape),
        ),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for a 2-D ``a`` and a 1-D or 2-D ``b``."""
    ta, tb = as_tensor(a), as_tensor(b)
    A, B = ta.data, tb.data
    if A.ndim != 2 or B.ndim not in (1, 2):
        raise ValueError(f"matmul: unsupported shapes {A.shape} @ {B.shape}")

    def vjp(g):
        return (np.outer(g, B) if B.ndim == 1 else g @ B.T), A.T @ g

    return _finish(A @ B, (ta, tb), vjp)


def affine(weight: Tensor, x, bias: Tensor) -> Tensor:
    """``weight @ x + bias`` for an (in, B) block ``x``, the bias added per column."""
    tw, tx, tb = as_tensor(weight), as_tensor(x), as_tensor(bias)
    W, X, b = tw.data, tx.data, tb.data
    if X.ndim != 2:
        raise ValueError(f"affine: unsupported input shape {X.shape}")
    return _finish(W @ X + b[:, None], (tw, tx, tb), lambda g: (g @ X.T, W.T @ g, g.sum(axis=1)))


def mlp_forward(layers, x: np.ndarray, activation: str) -> list[np.ndarray]:
    """Every layer's output of an MLP on an (in, B) block, tanh or relu after hidden layers.

    (out, in) weights with (out,) biases give (out, B) outputs. Weights stacked
    as (M, out, in) with (M, out) biases run M networks, bit-identical to M
    single runs, and give (M, out, B).
    """
    outs = []
    for i, (w, b) in enumerate(layers):
        h = np.matmul(w, outs[-1] if outs else x)
        h += b[..., None]
        if i < len(layers) - 1:
            h = np.tanh(h, out=h) if activation == "tanh" else np.where(h > 0, h, 0.0)
        outs.append(h)
    return outs


def mlp(layers, x: np.ndarray, activation: str) -> Tensor:
    """``mlp_forward`` of (weight, bias) tensors on a constant block, as one tape record.

    The VJP replays the ``affine`` and ``tanh``/``relu`` VJPs, operand for
    operand, from the last layer; the constant ``x`` gets no gradient.
    """
    tensors = tuple(as_tensor(t) for pair in layers for t in pair)
    data = [t.data for t in tensors]
    ins = [x] + mlp_forward(list(zip(data[::2], data[1::2])), x, activation)

    def vjp(g):
        grads = []
        for i in range(len(data) // 2 - 1, -1, -1):
            grads += [g.sum(axis=1), g @ ins[i].T]
            if i:
                g = data[2 * i].T @ g
                g = g * (1.0 - ins[i] * ins[i]) if activation == "tanh" else g * (ins[i] > 0)
        return tuple(reversed(grads))

    return _finish(ins[-1], tensors, vjp)


def reduce_sum(x) -> Tensor:
    tx = as_tensor(x)
    return _finish(
        np.asarray(tx.data.sum()),
        (tx,),
        lambda g: (np.broadcast_to(g, tx.data.shape).copy(),),
    )


def reduce_mean(x) -> Tensor:
    tx = as_tensor(x)
    n = tx.data.size
    return _finish(
        np.asarray(tx.data.mean()),
        (tx,),
        lambda g: (np.broadcast_to(g / n, tx.data.shape).copy(),),
    )


def l2_normalize(x) -> Tensor:
    """Normalize a vector (or each column of a matrix) to unit length.

    ``u = x / sqrt(sum(x**2) + EPS_NORM)``, with the sum over axis 0. The epsilon
    keeps the all-zero input well defined; away from zero it perturbs the
    norm by O(1e-12).
    """
    tx = as_tensor(x)
    X = tx.data
    if X.ndim == 1:
        inv = 1.0 / math.sqrt(float(np.dot(X, X)) + EPS_NORM)
        out = X * inv

        def vjp(g):
            return (g * inv - X * (float(np.dot(X, g)) * inv**3),)

    elif X.ndim == 2:
        inv = 1.0 / np.sqrt(np.einsum("ij,ij->j", X, X) + EPS_NORM)
        out = X * inv[None, :]

        def vjp(g):
            dots = np.einsum("ij,ij->j", X, g)
            return (g * inv[None, :] - X * (dots * inv**3)[None, :],)

    else:
        raise ValueError(f"l2_normalize: unsupported shape {X.shape}")
    return _finish(out, (tx,), vjp)


def _logistic(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-z))``, as ``e / (1 + e)`` with ``e = exp(z)`` where z < 0."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(z: np.ndarray) -> np.ndarray:
    """``log(1 + exp(z))`` in overflow-safe form."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid(x) -> Tensor:
    tx = as_tensor(x)
    y = _logistic(tx.data)
    return _finish(y, (tx,), lambda g: (g * y * (1.0 - y),))


def softplus_with_temperature(x, tau: float) -> Tensor:
    """``tau * log(1 + exp(x / tau))``, computed in overflow-safe form."""
    if tau <= 0.0:
        raise ValueError("softplus temperature must be positive")
    tx = as_tensor(x)
    z = tx.data / tau
    s = _logistic(z)
    return _finish(tau * _softplus(z), (tx,), lambda g: (g * s,))


def tanh(x) -> Tensor:
    tx = as_tensor(x)
    y = np.tanh(tx.data)
    return _finish(y, (tx,), lambda g: (g * (1.0 - y * y),))


def relu(x) -> Tensor:
    tx = as_tensor(x)
    mask = tx.data > 0
    return _finish(np.where(mask, tx.data, 0.0), (tx,), lambda g: (g * mask,))


def log(x) -> Tensor:
    tx = as_tensor(x)
    return _finish(np.log(tx.data), (tx,), lambda g: (g / tx.data,))


def exp(x) -> Tensor:
    tx = as_tensor(x)
    y = np.exp(tx.data)
    return _finish(y, (tx,), lambda g: (g * y,))


def square(x) -> Tensor:
    tx = as_tensor(x)
    return _finish(tx.data * tx.data, (tx,), lambda g: (g * 2.0 * tx.data,))


def concat(parts: Sequence) -> Tensor:
    tensors = [as_tensor(p) for p in parts]
    sizes = [t.data.size for t in tensors]
    out = np.concatenate([t.data.reshape(-1) for t in tensors])
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(
            g[offsets[i] : offsets[i + 1]].reshape(t.data.shape)
            for i, t in enumerate(tensors)
        )

    return _finish(out, tuple(tensors), vjp)


def reshape(x, shape) -> Tensor:
    tx = as_tensor(x)
    orig = tx.data.shape
    return _finish(
        tx.data.reshape(shape), (tx,), lambda g: (g.reshape(orig),)
    )


def scale(x, c: float) -> Tensor:
    """Multiply by a Python scalar constant."""
    tx = as_tensor(x)
    c = float(c)
    return _finish(tx.data * c, (tx,), lambda g: (g * c,))


def add_const(x, c) -> Tensor:
    """Add a constant array or scalar (no gradient to the constant)."""
    tx = as_tensor(x)
    return _finish(tx.data + np.asarray(c, dtype=np.float64), (tx,), lambda g: (g,))


def sq_distance(x, target, c: float) -> Tensor:
    """``c * sum((x - target)**2)`` to a constant ``target``, as one tape record.

    Bit for bit the ``add_const``/``square``/``reduce_sum``/``scale`` chain,
    forward and backward. The VJP recomputes the difference rather than
    holding it, as its one temporary, and adds it into the gradient sum
    when there is one.
    """
    tx = as_tensor(x)
    c = float(c)
    target = np.asarray(target, dtype=np.float64)
    diff = tx.data - target
    out = np.asarray(np.multiply(diff, diff, out=diff).sum()) * c

    def vjp(g):
        def add(acc):
            partial = tx.data - target
            partial *= (g * c) * 2.0
            if acc is None:
                return partial
            acc += partial
            return acc

        return (add,)

    return _finish(out, (tx,), vjp)


def reciprocal(x) -> Tensor:
    """``1 / x`` for strictly positive ``x`` via exp(-log(x))."""
    return exp(scale(log(x), -1.0))


def transpose(x) -> Tensor:
    tx = as_tensor(x)
    if tx.data.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    return _finish(tx.data.T.copy(), (tx,), lambda g: (g.T.copy(),))


# ---------------------------------------------------------------------------
# batched primitives (episode-parallel training)
# ---------------------------------------------------------------------------


# episodes per block of the leave-one-out keys and their VJP: rows are
# independent, so blocking changes no bit, and it keeps a (B, L, B) key block
# (16.8 MB at B = 256, L = 32) to an eighth of that. A block keys at least
# two episodes: with L = 1 a one-row key GEMM would run as a matrix-vector
# product, which rounds differently.
_CHUNK = 32


def _add_into(acc: np.ndarray, x: np.ndarray) -> None:
    np.add(acc, x, out=acc)


def _chunks(n: int, size: int) -> list[slice]:
    """``range(n)`` in slices of ``size``; a last slice of one joins the slice before it."""
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(j, k) for j, k in zip(starts, starts[1:] + [n])]


def loo_select(scores: np.ndarray, top_k: int, first: int = 0) -> np.ndarray:
    """Leave-one-out top-k columns of each row of an (n, B) score block.

    Row i is episode ``first + i``: its own column is masked (in place, to
    -inf) and the ``min(top_k, B - 1)`` largest scores kept, largest first,
    ties to the smaller column, exactly as ``np.argsort(-scores,
    kind="stable")[:, :k]``. For k up to B/4 a partition finds each row's
    k-th largest score, every column above it is kept and the leftmost
    columns tied with it fill the remaining places, so only the k winners
    are sorted; a wider selection (a dense teacher's) sorts whole rows,
    which is then faster. The selection is a constant of the forward pass.
    """
    n, B = scores.shape
    rows = np.arange(n)
    scores[rows, first + rows] = -np.inf
    k = min(int(top_k), B - 1)
    neg = np.negative(scores)
    if 4 * k > B:
        return np.argsort(neg, axis=1, kind="stable")[:, :k]
    if k < 1:
        return np.empty((n, 0), dtype=np.int64)
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1 : k]
    if np.isnan(kth).any():  # NaN sorts last; leave such rows to the full sort
        return np.argsort(neg, axis=1, kind="stable")[:, :k]
    above = neg < kth
    tied = neg == kth
    tied &= np.cumsum(tied, axis=1) <= k - above.sum(axis=1, keepdims=True)
    cols = np.nonzero(above | tied)[1].reshape(n, k)
    order = np.argsort(np.take_along_axis(neg, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def loo_retrieval_scores(maps, contexts_t, top_k: int) -> tuple[np.ndarray, Tensor]:
    """Leave-one-out retrieval of B episodes from one shared context block.

    ``maps`` is a (L*(p+1), B) stack of flattened per-episode (A, b) maps,
    ``contexts_t`` the constant (p, B) block whose column j is episode j's
    query and whose other columns are its candidates. Episode j keys every
    column with its own map, ``A_j @ contexts_t + b_j``, normalises each key
    as ``l2_normalize`` does and scores it against its own query key; then
    ``loo_select`` picks its top-k candidates. Returns ``sel`` (B, k) and the
    (B, k) selected cosine scores.

    Episodes are keyed, selected and differentiated ``_CHUNK`` at a time.
    Only when the scores are recorded on a tape are the selected and query
    columns, with their inverse norms, kept for the backward pass, so it
    works on B x (k+1) columns instead of B x B. Its partial accumulates:
    block by block into the maps' gradient sum when there is one (an
    anchor's), so the two are never held as separate (L*(p+1), B) blocks.
    """
    t_maps = as_tensor(maps)
    C = np.asarray(contexts_t, dtype=np.float64)
    p, B = C.shape
    D = t_maps.data.shape[0]
    L = D // (p + 1)
    if t_maps.data.shape != (L * (p + 1), B):
        raise ValueError(f"loo_retrieval_scores: maps {t_maps.data.shape} do not fit {C.shape}")
    A_rows = t_maps.data[: L * p].T  # episode j's map A_j, row-major, is row j
    bias = t_maps.data[L * p :].T[:, :, None]
    k = min(int(top_k), B - 1)
    sel = np.empty((B, k), dtype=np.int64)
    selected = np.empty((B, k))
    recording = _recording((t_maps,))
    if recording:
        # row 0 of each episode's (k+1, L) block is its query key, rows 1..k its selection
        cols = np.empty((B, k + 1), dtype=np.int64)
        kept = np.empty((B, k + 1, L))
        kept_inv = np.empty((B, k + 1, 1))
    for c in _chunks(B, _CHUNK):
        n = c.stop - c.start
        rows, own = np.arange(n), np.arange(c.start, c.stop)
        keys = (A_rows[c].reshape(n * L, p) @ C).reshape(n, L, B)
        keys += bias[c]
        inv = 1.0 / np.sqrt(np.einsum("jdi,jdi->ji", keys, keys) + EPS_NORM)
        keys *= inv[:, None, :]  # unit keys from here on
        scores = np.einsum("jd,jdi->ji", keys[rows, :, own], keys)
        sel[c] = loo_select(scores, top_k, c.start)
        selected[c] = np.take_along_axis(scores, sel[c], axis=1)
        if recording:
            cols[c, 0], cols[c, 1:] = own, sel[c]
            kept[c] = keys.transpose(0, 2, 1)[rows[:, None], cols[c]]
            kept_inv[c, :, 0] = np.take_along_axis(inv, cols[c], axis=1)
        del keys

    def vjp(g):
        def add(grad):
            # a block of its own while the maps have no gradient sum, else into the sum
            if grad is None:
                grad, put = np.empty((D, B)), np.copyto
            else:
                put = _add_into
            for c in _chunks(B, _CHUNK):
                u = kept[c]
                g_keys = np.empty_like(u)  # first as the gradient of the unit keys
                g_keys[:, 0] = (g[c, None, :] @ u[:, 1:])[:, 0]
                g_keys[:, 1:] = g[c, :, None] * u[:, :1]
                # through the normalisation: inv * (g - u (u . g)) for unit key u
                g_keys -= u * np.einsum("jcd,jcd->jc", u, g_keys)[:, :, None]
                g_keys *= kept_inv[c]
                put(grad[: L * p, c], (g_keys.transpose(0, 2, 1) @ C.T[cols[c]]).reshape(-1, L * p).T)
                put(grad[L * p :, c], g_keys.sum(axis=1).T)
            return grad

        return (add,)

    return sel, _finish(selected, (t_maps,), vjp)


_SATURATED = 40.0
# the smooth loss keeps its edge sigmoids for the backward pass up to this
# size (an expert's or the gate's narrow supports) and recomputes larger ones
_KEPT_EDGES_BYTES = 4 << 20
# bytes of edge sigmoids the smooth loss works on at a time: a block and the
# few temporaries of its size stay in a core's L2 cache
_EDGE_BLOCK_BYTES = 1 << 19


def _edge_sigmoids(gaps: np.ndarray, tau_q: float) -> np.ndarray:
    """``sigmoid(gaps / tau_q)`` in the form ``sigmoid`` uses, computed in ``gaps``.

    Where |z| > 40, exp(-|z|) < 2**-57 is taken as 0 (z is set to -inf
    before exp): 1 / (1 + e) is then exactly 1, and e / (1 + e) moves by
    under 5e-18. Without that, the saturated tails at low ``tau_q`` fill the
    arrays with subnormal numbers, which slow exp and every later operation
    on them tenfold.
    """
    pos = gaps >= 0
    e = np.abs(gaps, out=gaps)
    e *= -1.0 / tau_q
    np.copyto(e, -np.inf, where=e < -_SATURATED)
    np.exp(e, out=e)
    den = e + 1.0
    np.copyto(e, 1.0, where=pos)
    return np.divide(e, den, out=e)


def _level_edges(weights: np.ndarray, levels: np.ndarray, tau_q: float) -> np.ndarray:
    """The edge sigmoids (B, L, s+1) of B sorted supports of s weights at L levels."""
    B, s = weights.shape
    edges = np.zeros((B, 1, s + 1))
    np.cumsum(weights, axis=1, out=edges[:, 0, 1:])
    return _edge_sigmoids(levels[:, None] - edges, tau_q)


def smooth_quantiles(weights: np.ndarray, residuals: np.ndarray, levels, tau_q: float):
    """Sigmoid-CDF relaxed quantiles of B sorted supports at L levels at once.

    ``weights`` and ``residuals`` are (B, s), each row a support sorted by
    its residuals. One cumulative sum gives the CDF edges C_0 = 0, ..., C_s;
    bin i at level q is ``relu(sigmoid((q - C_{i-1}) / tau_q) -
    sigmoid((q - C_i) / tau_q))`` and the quantile is the bin-weighted mean
    of the residuals, so zero-weight padding columns get an empty bin.
    Returns the (B, L) quantiles with the edge sigmoids S (B, L, s+1), the
    active-bin mask and the bin masses (B, L). Raises ``NumericError`` when
    a bin mass vanishes.
    """
    S = _level_edges(weights, np.asarray(levels, dtype=np.float64), tau_q)
    bins = S[:, :, :-1] - S[:, :, 1:]
    active = bins > 0
    bins *= active
    mass = bins.sum(axis=2)
    if np.any(mass <= 0.0):
        raise NumericError("smooth quantile bin mass vanished (tau_q > 0 violated?)")
    quantiles = (bins @ residuals[:, :, None])[:, :, 0] / mass
    return quantiles, S, active, mass


def smooth_winkler_grid(weights, residuals, targets, alphas, tau_q: float, tau_p: float) -> Tensor:
    """Per-episode mean smooth Winkler score over a miscoverage grid.

    ``weights`` is a (B, s) tensor of supports sorted by the constant (B, s)
    ``residuals``; ``targets`` (B,) are the held-out residuals. With
    ``smooth_quantiles`` lo_a = Qs(a/2) and hi_a = Qs(1 - a/2), row j is

        mean_a [hi_a - lo_a + (2/a) * (softplus_tp(lo_a - r_j) + softplus_tp(r_j - hi_a))]

    with ``softplus_tp`` the ``softplus_with_temperature`` at ``tau_p``. All
    2|alphas| levels are computed together over (B, 2|alphas|, s+1) edges,
    in blocks of episodes whose edges take at most ``_EDGE_BLOCK_BYTES``.
    The VJP returns to the weights through one reverse cumulative sum. It
    reads the blocks' edge sigmoids, kept when they total at most
    ``_KEPT_EDGES_BYTES`` and recomputed otherwise, as for a dense
    teacher's (B, 22, B) edges.
    """
    tw = as_tensor(weights)
    W = tw.data
    R = np.asarray(residuals, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)[:, None]
    alphas = np.asarray(alphas, dtype=np.float64)
    n = alphas.size
    levels = np.concatenate([alphas / 2.0, 1.0 - alphas / 2.0])
    Q = np.empty((W.shape[0], 2 * n))
    mass = np.empty_like(Q)
    episode_bytes = 2 * n * (W.shape[1] + 1) * 8
    blocks = _chunks(W.shape[0], max(1, _EDGE_BLOCK_BYTES // episode_bytes))
    kept = [] if W.shape[0] * episode_bytes <= _KEPT_EDGES_BYTES else None
    for c in blocks:
        Q[c], S, _, mass[c] = smooth_quantiles(W[c], R[c], levels, tau_q)
        if kept is not None:
            kept.append(S)
    lo, hi = Q[:, :n], Q[:, n:]
    z_lo, z_hi = (lo - t) / tau_p, (t - hi) / tau_p
    penalties = tau_p * _softplus(z_lo) + tau_p * _softplus(z_hi)
    out = (hi - lo + penalties * (2.0 / alphas)).sum(axis=1) * (1.0 / n)
    # d out / d (lo, hi) per unit of upstream gradient
    dQ = np.concatenate(
        [-1.0 + (2.0 / alphas) * _logistic(z_lo), 1.0 - (2.0 / alphas) * _logistic(z_hi)],
        axis=1,
    ) * (1.0 / n)

    def vjp(g):
        coef = (g[:, None] * dQ) / mass
        grad = np.empty_like(W)
        for i, c in enumerate(blocks):
            S = _level_edges(W[c], levels, tau_q) if kept is None else kept[i]
            g_bins = R[c, None, :] - Q[c, :, None]
            g_bins *= coef[c, :, None]
            g_bins *= S[:, :, :-1] > S[:, :, 1:]  # the active bins
            slope = 1.0 - S[:, :, 1:]
            slope *= S[:, :, 1:]
            # edges C_1..C_s end bins 0..s-1 and start bins 1..s-1 (C_0 = 0 is fixed)
            g_edges = np.einsum("bls,bls->bs", g_bins, slope)
            g_edges[:, :-1] -= np.einsum("bls,bls->bs", g_bins[:, :, 1:], slope[:, :, :-1])
            g_edges *= 1.0 / tau_q
            # C_i sums weights 0..i-1, so weight j collects edges j+1..s
            grad[c] = np.cumsum(g_edges[:, ::-1], axis=1)[:, ::-1]
        return (grad,)

    return _finish(out, (tw,), vjp)


def gather_rows(x, indices) -> Tensor:
    """Row-wise gather: ``out[j, c] = x[j, indices[j, c]]``."""
    tx = as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    B = tx.data.shape[0]
    rows = np.arange(B)[:, None]

    def vjp(g):
        z = np.zeros_like(tx.data)
        np.add.at(z, (rows, idx), g)
        return (z,)

    return _finish(tx.data[rows, idx], (tx,), vjp)


def softmax_rows(x, temperature: float) -> Tensor:
    """Row-wise softmax of ``x / temperature`` with max-subtraction."""
    if temperature <= 0.0:
        raise ValueError("softmax temperature must be positive")
    tx = as_tensor(x)
    z = tx.data / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dots = np.einsum("ji,ji->j", g, y)
        return ((y * (g - dots[:, None])) / temperature,)

    return _finish(y, (tx,), vjp)


def batched_mix(weight_matrices, pi) -> Tensor:
    """Per-episode mixture: ``out[j, u] = sum_m V[j, u, m] * pi[j, m]``."""
    t_v, t_pi = as_tensor(weight_matrices), as_tensor(pi)
    V, P = t_v.data, t_pi.data
    out = np.einsum("jum,jm->ju", V, P)

    def vjp(g):
        dV = g[:, :, None] * P[:, None, :]
        dP = np.einsum("jum,ju->jm", V, g)
        return (dV, dP)

    return _finish(out, (t_v, t_pi), vjp)


# ---------------------------------------------------------------------------
# gradient checking and optimization
# ---------------------------------------------------------------------------


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
) -> float:
    """Max relative error between tape gradients of ``f()`` and central differences.

    ``f`` must rebuild the computation from the current ``params`` data every
    call. Relative error uses a ``max(|a|, |b|, 1e-8)`` denominator.
    """
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
    tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            f_plus = float(f().data)
            flat[i] = keep - h
            f_minus = float(f().data)
            flat[i] = keep
            fd = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst


# elements of a parameter that one Adam update works on at a time
_ADAM_BLOCK = 1 << 14


class Adam:
    """Adam optimizer (beta1=0.9, beta2=0.999, eps=1e-8 by default).

    ``step`` updates each parameter in place, a block of rows of about
    ``_ADAM_BLOCK`` elements at a time, so its two temporaries are never
    larger than a block. The arithmetic is the textbook update's,
    operation for operation, so the bits are too.
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            x, m, v, g = (np.atleast_1d(a) for a in (p.data, m, v, p.grad))
            rows = max(1, _ADAM_BLOCK * len(x) // max(1, x.size))
            for j in range(0, len(x), rows):
                block = slice(j, j + rows)
                self._update(x[block], m[block], v[block], g[block], b1t, b2t)

    def _update(self, x, m, v, g, b1t: float, b2t: float) -> None:
        """The moment updates, then ``x -= lr * (m / b1t) / (sqrt(v / b2t) + eps)``, in place."""
        tmp = g * (1.0 - self.beta1)
        m *= self.beta1
        m += tmp
        np.multiply(g, 1.0 - self.beta2, out=tmp)
        tmp *= g
        v *= self.beta2
        v += tmp
        np.divide(v, b2t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        step = m / b1t
        step *= self.lr
        step /= tmp
        x -= step
