"""Query-conditioned retrieval experts over the calibration store.

Each expert turns a query context into an affine key map (A, b): either
emitted per query by a small hypernetwork conditioned on the query and a
dataset descriptor, or a fixed dataset-level affine map. Their weights are
plain numpy arrays; only training wraps the arrays it steps as tape
leaves (``training.leaves``). Keys are
cosine-normalized, so retrieval is nearest-neighbor on the unit sphere:
``|u - v|^2 = 2 - 2 u.v``. The expert keeps the top-k calibration keys by
cosine score and puts temperature-softmax weights on exactly that support.

``retrieve_supports`` serves all M experts of a query at once, in plain
numpy: an ``ExpertStack`` holds their weights stacked, so the M maps come
from one batched matmul per layer, folded as ``[A | b]``. The store keeps
its contexts, read through its descriptor, above a row of ones
(``CalibrationStore.key_inputs``), so one GEMM keys it, bias included;
``normalize_keys`` then scales the (M, n) scores, not the keys, by each
key's inverse norm. Keys depend on the query's map, so they are
recomputed for every query and never cached.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from rarecp import autodiff as ad
from rarecp.autodiff import EPS_NORM
from rarecp.data import CalibrationStore, descriptor_feature_dim
from rarecp.errors import DataError, NumericError


@dataclass(frozen=True)
class ExpertConfig:
    top_k: int = 32
    beta: float = 12.0  # inverse temperature; softmax temperature is 1/beta

    def __post_init__(self):
        if self.top_k < 1:
            raise DataError("top_k must be >= 1")
        if self.beta <= 0.0:
            raise DataError("beta must be positive")

    @property
    def weight_temperature(self) -> float:
        return 1.0 / self.beta


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------


def _mlp_init(sizes: list[int], rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in)), np.zeros(fan_out))
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:])]


def query_forward(layers, query_z: np.ndarray, feats: np.ndarray, activation: str) -> np.ndarray:
    """An MLP's output for one query, run as a one-column block: (out,), or (M, out) if stacked."""
    x = np.concatenate([query_z, feats])[:, None]
    return ad.mlp_forward(layers, x, activation)[-1][..., 0]


def identity_map(latent_dim: int, context_dim: int) -> np.ndarray:
    """Identity-like (latent_dim, context_dim) matrix on the most recent features.

    Aligned to the end of the window so truncated keys keep the freshest
    values; used as the scale-free default starting geometry.
    """
    A = np.zeros((latent_dim, context_dim))
    d = min(latent_dim, context_dim)
    rows = np.arange(d)
    A[rows, context_dim - d + rows] = 1.0
    return A


class HypernetworkParams:
    """MLP emitting a flat (A, b) retrieval map from (query, descriptor).

    Output size is exactly ``latent_dim * (context_dim + 1)``; the first
    ``latent_dim * context_dim`` entries reshape row-major into A.
    """

    def __init__(
        self,
        context_dim: int,
        latent_dim: int,
        hidden_dim: int = 96,
        hidden_layers: int = 2,
        activation: str = "tanh",
        seed: int = 0,
        final_weight_scale: float = 1e-3,
    ):
        if hidden_layers < 1:
            raise DataError("hypernetwork needs at least one hidden layer")
        self.context_dim = int(context_dim)
        self.latent_dim = int(latent_dim)
        self.activation = activation
        input_dim = context_dim + descriptor_feature_dim(context_dim)
        out_dim = latent_dim * (context_dim + 1)
        sizes = [input_dim] + [hidden_dim] * hidden_layers + [out_dim]
        rng = np.random.default_rng([seed, 101])
        self.layers = _mlp_init(sizes, rng)
        # final layer starts near zero so the emitted map begins at the bias,
        # the identity map on the freshest features until ``start_at`` moves it
        w_last, b_last = self.layers[-1]
        self.layers[-1] = rng.normal(0.0, final_weight_scale, size=w_last.shape), b_last
        self.start_at(identity_map(latent_dim, context_dim), np.zeros(latent_dim))

    def start_at(self, A0: np.ndarray, b0: np.ndarray) -> None:
        """Make the emitted map start at ``(A0, b0)``: the final bias, written in place."""
        self.layers[-1][1][:] = np.concatenate([np.asarray(A0).reshape(-1), np.asarray(b0)])

    @classmethod
    def from_arrays(cls, layers, activation: str) -> "HypernetworkParams":
        """A hypernetwork over given (weight, bias) arrays, uncopied."""
        self = cls.__new__(cls)
        self.layers, self.activation = list(layers), activation
        self.context_dim = (self.layers[0][0].shape[1] - 2) // 2  # input: 2 p + 2
        self.latent_dim = self.layers[-1][0].shape[0] // (self.context_dim + 1)
        return self

    def emit(self, query_z: np.ndarray, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The affine map (A, b) for one query."""
        out = query_forward(self.layers, query_z, feats, self.activation)
        split = self.latent_dim * self.context_dim
        return out[:split].reshape(self.latent_dim, self.context_dim), out[split:]


class FixedAffineMap:
    """Dataset-level affine key map, the encoder family used for teachers."""

    def __init__(self, context_dim: int, latent_dim: int, seed: int = 0):
        self.context_dim = int(context_dim)
        self.latent_dim = int(latent_dim)
        rng = np.random.default_rng([seed, 202])
        A0 = identity_map(latent_dim, context_dim)
        self.A = A0 + 0.05 * rng.standard_normal(A0.shape)
        self.b = 0.05 * rng.standard_normal(latent_dim)

    @classmethod
    def from_arrays(cls, A: np.ndarray, b: np.ndarray) -> "FixedAffineMap":
        """A fixed map over the given (L, p) ``A`` and (L,) ``b``, uncopied."""
        self = cls.__new__(cls)
        self.A, self.b = A, b
        self.latent_dim, self.context_dim = A.shape
        return self

    def start_at(self, A0: np.ndarray, b0: np.ndarray) -> None:
        """Set the map to ``(A0, b0)``, written in place."""
        self.A[:], self.b[:] = A0, b0

    def emit(self, query_z: np.ndarray, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.A, self.b


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------


def normalize_keys(maps: np.ndarray, query_z: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Cosine scores of one query against every key input, under each of M maps.

    ``maps`` stacks M folded key maps ``[A | b]`` as (M, L, p + 1), and
    ``columns`` is a (p + 1, n) block of key inputs whose last row is 1, so
    one GEMM gives every key ``A x + b``. The query is keyed by the same
    maps on ``[query_z; 1]`` and normalised; the keys are not: the (M, n)
    scores ``q . k`` are scaled by each key's inverse norm instead. Raises
    ``NumericError`` when a key's squared norm is not finite, so an
    overflowing key never scores 0.
    """
    M, L, width = maps.shape
    keys = (maps.reshape(M * L, width) @ columns).reshape(M, L, columns.shape[1])
    sq = np.einsum("mln,mln->mn", keys, keys)
    q = maps @ np.append(query_z, 1.0)
    q_sq = np.einsum("ml,ml->m", q, q)
    if not (np.all(np.isfinite(sq)) and np.all(np.isfinite(q_sq))):
        raise NumericError("a retrieval key overflowed: its squared norm is not finite")
    q *= (1.0 / np.sqrt(q_sq + EPS_NORM))[:, None]
    scores = np.matmul(q[:, None, :], keys)[:, 0]
    scores *= 1.0 / np.sqrt(sq + EPS_NORM)
    return scores


def topk_retrieve(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, largest first; ties go to the smaller index.

    Exactly ``np.lexsort((np.arange(n), -scores))[:k]`` in O(n + k log k):
    ``argpartition`` finds the k-th largest score, every index scoring above
    it is kept, the smallest indices tied with it fill the remaining places,
    and only the k winners are sorted. If fewer than k scores exist, all
    indices are returned. The selection is a constant of the forward pass —
    gradients never flow through it.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    k = min(int(k), n)
    if 0 < k < n:
        top = np.argpartition(scores, n - k)[n - k :]
        kth = scores[top[0]]
        above = top[scores[top] > kth]
        tied = np.flatnonzero(scores == kth)[: k - above.size]
        top = np.concatenate((above, tied))
    else:
        top = np.arange(k)
    return top[np.lexsort((top, -scores[top]))]


def support_weights(scores: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax of one score row, as ``autodiff.softmax_rows`` computes it."""
    z = np.asarray(scores, dtype=np.float64) / temperature
    e = np.exp(z - z.max())
    return e / e.sum()


@dataclass
class RetrievalResult:
    """Sparse support for one (expert, query) pair."""

    support_indices: np.ndarray
    scores: np.ndarray
    weights: np.ndarray
    residuals: np.ndarray


@dataclass
class RetrievalExpert:
    """One retrieval head: an encoder plus its retrieval hyperparameters."""

    encoder: HypernetworkParams | FixedAffineMap
    config: ExpertConfig


class ExpertStack(Sequence):
    """A model's M retrieval experts, with their weights stacked once for serving.

    The experts are all of one encoder kind. Hypernetwork experts share one
    architecture, and ``layers`` stacks each layer as (M, out, in) weights
    and (M, out) biases. For fixed-affine experts ``layers`` is empty and
    ``flat`` holds each expert's map ``[A.ravel(), b]`` as one row, in the
    layout a hypernetwork emits. The experts' weights are views of these
    arrays. Indexing gives the experts.
    """

    def __init__(self, experts, layers, flat: np.ndarray | None = None):
        self.experts, self.layers, self.flat = list(experts), list(layers), flat
        first = self.experts[0].encoder
        self.activation = first.activation if self.layers else None
        self.shape = (len(self.experts), first.latent_dim, first.context_dim)

    def __getitem__(self, i):
        return self.experts[i]

    def __len__(self) -> int:
        return len(self.experts)

    @classmethod
    def of(cls, experts) -> "ExpertStack":
        """Copy the weights of ``experts`` into a stack and point each expert at its slice.

        The experts must be of one encoder kind and share one key map shape,
        and hypernetworks one architecture.
        """
        encoders = [e.encoder for e in experts]
        if len({type(enc) for enc in encoders}) != 1:
            raise DataError("experts stacked together must be of one encoder kind")
        if len({(enc.latent_dim, enc.context_dim) for enc in encoders}) != 1:
            raise DataError("experts retrieved together must share one key dimension")
        if isinstance(encoders[0], FixedAffineMap):
            L, p = encoders[0].latent_dim, encoders[0].context_dim
            flat = np.zeros((len(encoders), L * (p + 1)))
            for row, enc in zip(flat, encoders):
                row[: L * p], row[L * p :] = enc.A.reshape(-1), enc.b
                enc.A, enc.b = row[: L * p].reshape(L, p), row[L * p :]
            return cls(experts, [], flat)
        if len({(enc.activation, *(w.shape for w, _ in enc.layers)) for enc in encoders}) > 1:
            raise DataError("hypernetwork experts stacked together must share one architecture")
        layers = [
            tuple(np.stack(arrays) for arrays in zip(*pairs))
            for pairs in zip(*(enc.layers for enc in encoders))
        ]
        for h, enc in enumerate(encoders):
            enc.layers = [(w_all[h], b_all[h]) for w_all, b_all in layers]
        return cls(experts, layers)

    def maps(self, query_z: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """The M key maps of one query, folded as ``[A | b]`` into (M, L, p + 1)."""
        flat = self.flat
        if self.layers:
            flat = query_forward(self.layers, query_z, feats, self.activation)
        M, L, p = self.shape
        return np.concatenate((flat[:, : L * p].reshape(M, L, p), flat[:, L * p :, None]), 2)


def retrieve_supports(
    experts: ExpertStack,
    store: CalibrationStore,
    query_z: np.ndarray,
    feats: np.ndarray,
) -> list[RetrievalResult]:
    """Every expert's top-k weighted support for one query, from one key pass.

    ``query_z`` and ``feats`` are the query as the encoders read it and the
    descriptor features, as ``store.query`` gives them. The M
    folded maps key the store's ring-order key inputs in one GEMM
    (``normalize_keys``). Only the (M, n) scores are put in chronological
    order, so ties still go to the older entry.
    """
    if len(store) == 0:
        raise DataError("cannot retrieve from an empty calibration store")
    if not np.all(np.isfinite(query_z)):
        raise NumericError("the z-scored query is not finite")
    maps = experts.maps(query_z, feats)
    scores = store.chronological(normalize_keys(maps, query_z, store.key_inputs()))
    residuals = store.residuals()
    results = []
    for expert, expert_scores in zip(experts, scores):
        sel = topk_retrieve(expert_scores, expert.config.top_k)
        top = expert_scores[sel]
        results.append(
            RetrievalResult(
                support_indices=sel,
                scores=top,
                weights=support_weights(top, expert.config.weight_temperature),
                residuals=residuals[sel],
            )
        )
    return results

