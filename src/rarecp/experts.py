"""Query-conditioned retrieval experts over the calibration store.

Each expert turns a query context into an affine key map (A, b): either
emitted per query by a small hypernetwork conditioned on the query and a
dataset descriptor, or a fixed dataset-level affine map. Keys are
cosine-normalized, so retrieval is nearest-neighbor on the unit sphere:
``|u - v|^2 = 2 - 2 u.v``. The expert keeps the top-k calibration keys by
dot product and puts temperature-softmax weights on exactly that support.

``retrieve_supports`` serves all M experts of a query at once: it stacks
their maps into one (M*L, p) matrix and keys the store's z-scored
contexts (kept by the store itself, see ``CalibrationStore.key_inputs``)
with a single GEMM. Calibration keys depend on the query's map, so they
are recomputed for every query and never cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rarecp import autodiff as ad
from rarecp.autodiff import EPS_NORM, Tensor
from rarecp.conformal import WeightedSupport
from rarecp.data import CalibrationStore, DatasetDescriptor, normalize_context
from rarecp.errors import DataError, NumericError


@dataclass(frozen=True)
class ExpertConfig:
    latent_dim: int = 32
    top_k: int = 32
    beta: float = 12.0  # inverse temperature; softmax temperature is 1/beta
    encoder_kind: str = "hypernetwork"

    def __post_init__(self):
        if self.latent_dim < 1 or self.top_k < 1:
            raise DataError("latent_dim and top_k must be >= 1")
        if self.beta <= 0.0:
            raise DataError("beta must be positive")
        if self.encoder_kind not in ("hypernetwork", "fixed_affine"):
            raise DataError(f"unknown encoder kind {self.encoder_kind!r}")

    @property
    def weight_temperature(self) -> float:
        return 1.0 / self.beta


def signed_log1p(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.log1p(np.abs(x))


def descriptor_features(descriptor: DatasetDescriptor) -> np.ndarray:
    """Conditioning vector for the hypernetwork and gate.

    Uses scale-free summaries — dataset id, compressed mu/sigma shape, and
    the log calibration count — so rescaling a series leaves retrieval
    unchanged while cross-dataset conditioning stays informative.
    """
    shape = signed_log1p(descriptor.mu / descriptor.sigma)
    return np.concatenate(
        [[float(descriptor.dataset_id)], shape, [descriptor.log_n]]
    )


def descriptor_feature_dim(context_dim: int) -> int:
    return context_dim + 2


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------


def _mlp_init(
    sizes: list[int], rng: np.random.Generator, scale: float | None = None
) -> list[tuple[Tensor, Tensor]]:
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        std = scale if scale is not None else 1.0 / np.sqrt(fan_in)
        w = ad.parameter(rng.normal(0.0, std, size=(fan_out, fan_in)))
        b = ad.parameter(np.zeros(fan_out))
        layers.append((w, b))
    return layers


def _mlp_forward(layers, x: Tensor, activation: str) -> Tensor:
    act = ad.tanh if activation == "tanh" else ad.relu
    h = x
    for w, b in layers[:-1]:
        h = act(ad.affine(w, h, b))
    w, b = layers[-1]
    return ad.affine(w, h, b)


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
        final_bias_map: tuple[np.ndarray, np.ndarray] | str = "identity",
        final_weight_scale: float = 1e-3,
    ):
        if hidden_layers < 1:
            raise DataError("hypernetwork needs at least one hidden layer")
        self.context_dim = int(context_dim)
        self.latent_dim = int(latent_dim)
        self.hidden_dim = int(hidden_dim)
        self.hidden_layers = int(hidden_layers)
        self.activation = activation
        input_dim = context_dim + descriptor_feature_dim(context_dim)
        out_dim = latent_dim * (context_dim + 1)
        sizes = [input_dim] + [hidden_dim] * hidden_layers + [out_dim]
        rng = np.random.default_rng([seed, 101])
        self.layers = _mlp_init(sizes, rng)
        # final layer starts near zero so the emitted map begins at the bias
        w_last, b_last = self.layers[-1]
        w_last.data = rng.normal(0.0, final_weight_scale, size=w_last.data.shape)
        if isinstance(final_bias_map, str):
            if final_bias_map == "identity":
                A0 = identity_map(latent_dim, context_dim)
                b0 = np.zeros(latent_dim)
            elif final_bias_map == "zero":
                A0 = np.zeros((latent_dim, context_dim))
                b0 = np.zeros(latent_dim)
            else:
                raise DataError(f"unknown final bias init {final_bias_map!r}")
        else:
            A0, b0 = final_bias_map
        b_last.data = np.concatenate([np.asarray(A0).reshape(-1), np.asarray(b0)])

    def parameters(self) -> list[Tensor]:
        return [t for pair in self.layers for t in pair]

    def emit(self, query_z: np.ndarray, feats: np.ndarray) -> tuple[Tensor, Tensor]:
        """Forward pass producing the affine map (A, b) for one query."""
        x = ad.constant(np.concatenate([query_z, feats]))
        out = _mlp_forward(self.layers, x, self.activation)
        split = self.latent_dim * self.context_dim
        A = ad.reshape(
            ad.index_select(out, np.arange(split)),
            (self.latent_dim, self.context_dim),
        )
        b = ad.index_select(out, np.arange(split, split + self.latent_dim))
        return A, b

    def emit_batch(self, inputs: np.ndarray) -> Tensor:
        """Flat (A, b) stack for a whole (input_dim, B) query block."""
        return _mlp_forward(self.layers, ad.constant(inputs), self.activation)


class FixedAffineMap:
    """Dataset-level affine key map, the encoder family used for teachers."""

    def __init__(
        self,
        context_dim: int,
        latent_dim: int,
        seed: int = 0,
        init_noise: float = 0.05,
    ):
        self.context_dim = int(context_dim)
        self.latent_dim = int(latent_dim)
        rng = np.random.default_rng([seed, 202])
        A0 = identity_map(latent_dim, context_dim)
        self.A = ad.parameter(A0 + init_noise * rng.standard_normal(A0.shape))
        self.b = ad.parameter(init_noise * rng.standard_normal(latent_dim))

    def parameters(self) -> list[Tensor]:
        return [self.A, self.b]

    def emit(self, query_z: np.ndarray, feats: np.ndarray) -> tuple[Tensor, Tensor]:
        return self.A, self.b

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.A.data.copy(), self.b.data.copy()


def emit_expert_map(
    encoder, query_z: np.ndarray, descriptor: DatasetDescriptor
) -> tuple[Tensor, Tensor]:
    return encoder.emit(query_z, descriptor_features(descriptor))


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------


def normalize_keys(A, b, columns: np.ndarray) -> np.ndarray:
    """Unit keys ``(A x + b) / |A x + b|`` for each column ``x`` of a (p, n) block.

    ``A`` is one (L, p) map with bias (L,), giving (L, n) keys, or a stack of
    M maps (M, L, p) with biases (M, L), giving (M, L, n): the stack runs as
    one GEMM and each map's keys are normalised on their own. A single
    query is a one-column block. Raises ``NumericError`` when a key's
    squared norm is not finite, so an overflowing key never scores 0.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    keys = (A.reshape(-1, A.shape[-1]) @ columns).reshape(A.shape[:-1] + (columns.shape[1],))
    keys += b[..., None]
    sq = np.einsum("...ln,...ln->...n", keys, keys)
    if not np.all(np.isfinite(sq)):
        raise NumericError("a retrieval key overflowed: its squared norm is not finite")
    keys *= (1.0 / np.sqrt(sq + EPS_NORM))[..., None, :]
    return keys


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


def support_weights(scores, temperature: float) -> Tensor:
    """Temperature softmax over the retained support scores only."""
    return ad.softmax_with_temperature(scores, temperature)


@dataclass
class RetrievalResult:
    """Sparse support for one (expert, query) pair."""

    support_indices: np.ndarray
    scores: np.ndarray
    weights: np.ndarray
    residuals: np.ndarray

    def support(self) -> WeightedSupport:
        return WeightedSupport(self.residuals, self.weights)


class ProjectionCounter:
    """Counts key projections, one per calibration entry per expert query."""

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)

    def reset(self) -> None:
        self.count = 0


@dataclass
class RetrievalExpert:
    """One retrieval head: an encoder plus its retrieval hyperparameters."""

    encoder: HypernetworkParams | FixedAffineMap
    config: ExpertConfig
    projections: ProjectionCounter = field(default_factory=ProjectionCounter)

    def parameters(self) -> list[Tensor]:
        return self.encoder.parameters()

    def retrieve(
        self,
        store: CalibrationStore,
        query: np.ndarray,
        descriptor: DatasetDescriptor,
        normalize: bool = True,
    ) -> RetrievalResult:
        """Top-k weighted support from the current store for one query."""
        query_z, feats = query_features(query, descriptor, normalize)
        (result,) = retrieve_supports(
            [self], store, query_z, feats, descriptor if normalize else None
        )
        return result


def query_features(
    query: np.ndarray, descriptor: DatasetDescriptor, normalize: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """The query as encoders and gate read it, and the descriptor features.

    The query is z-scored with the descriptor unless ``normalize`` is False.
    """
    if normalize:
        query_z = normalize_context(query, descriptor)
    else:
        query_z = np.asarray(query, dtype=np.float64)
    return query_z, descriptor_features(descriptor)


def retrieve_supports(
    experts: list[RetrievalExpert],
    store: CalibrationStore,
    query_z: np.ndarray,
    feats: np.ndarray,
    descriptor: DatasetDescriptor | None,
) -> list[RetrievalResult]:
    """Every expert's top-k weighted support for one query, from one key pass.

    ``query_z`` is the query as the encoders read it, z-scored with
    ``descriptor``; with ``descriptor=None`` both the query and the store's
    contexts are used raw. The M emitted maps are stacked and keyed against
    the store's ring-order key inputs in one GEMM. Only the (M, n) scores
    are put in chronological order, so ties still go to the older entry.
    """
    if len(store) == 0:
        raise DataError("cannot retrieve from an empty calibration store")
    if not np.all(np.isfinite(query_z)):
        raise NumericError("the z-scored query is not finite")
    maps = [expert.encoder.emit(query_z, feats) for expert in experts]
    if len({A.data.shape for A, _ in maps}) != 1:
        raise DataError("experts retrieved together must share one key dimension")
    A = np.stack([A.data for A, _ in maps])
    b = np.stack([b.data for _, b in maps])
    q = normalize_keys(A, b, query_z[:, None])[..., 0]
    keys = normalize_keys(A, b, store.key_inputs(descriptor))
    scores = store.chronological(np.stack([q_m @ keys_m for q_m, keys_m in zip(q, keys)]))
    residuals = store.residuals()
    results = []
    for expert, expert_scores in zip(experts, scores):
        expert.projections.add(len(store))
        sel = topk_retrieve(expert_scores, expert.config.top_k)
        top = expert_scores[sel]
        weights = support_weights(top, expert.config.weight_temperature)
        results.append(
            RetrievalResult(
                support_indices=sel,
                scores=top,
                weights=weights.data,
                residuals=residuals[sel],
            )
        )
    return results


def expert_support(
    store: CalibrationStore,
    expert: RetrievalExpert,
    query: np.ndarray,
    descriptor: DatasetDescriptor,
    normalize: bool = True,
) -> WeightedSupport:
    """Residuals of the retrieved entries paired with their softmax weights."""
    return expert.retrieve(store, query, descriptor, normalize=normalize).support()
