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
from one batched matmul per layer, folded as ``[A | b]``. One row top-k
ranks the (M, c) scores and one row softmax weighs the picks: the
``autodiff.topk_rows`` and ``autodiff.softmax`` that training's
leave-one-out episodes use. The store keeps
its contexts, read through its descriptor, above a row of ones in blocks
of ``KEY_PANEL`` columns (``CalibrationStore.key_panels``), so one GEMM per
block keys them, bias included; ``normalize_keys`` then scales the scores,
not the keys, by each key's inverse norm. Keys depend on the query's map,
so they are recomputed for every query and never cached.

On a store of at least ``_FILTER_MIN_ENTRIES`` entries, ``normalize_keys``
first keys the store's float32 mirror (``CalibrationStore.key_mirror``,
4 (p + 1) capacity bytes, with 8 capacity more for the column norms) and
bounds each float32 score's distance from the entry's float64 score
(``_candidates``). Only entries whose upper bound reaches an expert's k-th
largest lower bound are keyed again and scored in float64, so each
expert's top-k is exactly the float64 top-k over the whole store, ties
included. Every entry is scored in float64 when the store is smaller (the
filter then costs more than it saves), when some k reaches the store's
size, or when float32 cannot hold the keys' range; that is the same code
with every entry a candidate. The float64 GEMMs all have one shape, a
``KEY_PANEL``-column block, so an entry's float64 score does not depend on
which entries are scored beside it (``_scores``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from rarecp import autodiff as ad
from rarecp.autodiff import EPS_NORM
from rarecp.data import CalibrationStore, descriptor_feature_dim
from rarecp.errors import DataError, NumericError
from rarecp.validation import check_choice

if TYPE_CHECKING:
    from rarecp.training import ModelConfig

# A store below this size re-scores every entry in float64: the float32
# filter then costs more than it saves
_FILTER_MIN_ENTRIES = 1024


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
        hidden_dim: int,
        hidden_layers: int,
        activation: str,
        seed: int = 0,
        final_weight_scale: float = 1e-3,
    ):
        if hidden_layers < 1:
            raise DataError("hypernetwork needs at least one hidden layer")
        self.context_dim = int(context_dim)
        self.latent_dim = int(latent_dim)
        self.activation = check_choice(activation, ad.ACTIVATIONS, "activation")
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
        self.layers = list(layers)
        self.activation = check_choice(activation, ad.ACTIVATIONS, "activation")
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


def _gamma(n: int, unit: float) -> float:
    """Higham's gamma_n: the relative error bound of an n-term dot product."""
    return n * unit / (1.0 - n * unit)


def _candidates(
    maps: np.ndarray, q: np.ndarray, store: CalibrationStore, k: int
) -> np.ndarray | None:
    """Entries that can be in each expert's float64 top-k: an (M, n) mask in ring order.

    Keys the store's float32 mirror and bounds each float32 score's distance
    from the float64 score of the same entry. Entry i's exact key ``W x_i``
    is within ``a = (gamma32_{p+4} + gamma64_{p+2}) |W|_F |x_i|`` of both its
    float32 and its float64 key (the GEMMs, and the rounding of the map and
    the column to float32), and the cosine score ``q . k / sqrt(|k|^2 + eps)``
    moves by at most ``|q| a / r`` when its key moves that far through keys
    whose ``sqrt(|k|^2 + eps)`` stays at least ``r``. ``r`` is the float32
    key's such norm (after gamma32_{L+6} for its own rounding) less ``a``;
    each score's own rounding adds 2.02 gamma_{L+4} in either precision. The
    bound is capped at 3, the width of the cosine range with room to spare,
    so an entry whose key may be near zero stays in. An entry is kept when
    its upper bound reaches the k-th largest lower bound: at least k entries
    outscore it otherwise, in any float64 evaluation.

    Returns None, so that every entry is re-scored, when float32 cannot hold
    the keys' range: a map norm below 2^-30 (whose underflow the bound does
    not cover) or a key that may exceed 2^60 (whose square may overflow).
    """
    keys32, norms = store.key_mirror()
    M, L, width = maps.shape
    n = len(store)
    omega = np.sqrt(np.einsum("mlj,mlj->m", maps, maps))
    if not (omega.min() >= 2.0**-30 and omega.max() * norms.max() <= 2.0**60):
        return None
    u32, u64 = 2.0**-24, 2.0**-53
    slack = 1.0 + 2.0**-16  # |q| <= 1 + 2^-50, and the bound's own float32 rounding
    key_err = (_gamma(width + 3, u32) + _gamma(width + 1, u64)) * slack
    score_err = 2.02 * (_gamma(L + 4, u32) + _gamma(L + 4, u64)) * slack + 2.0**-21
    # every array below is (panels, M, panel width), laid out like the store's blocks
    keys = np.matmul(maps.astype(np.float32).reshape(M * L, width), keys32)
    keys = keys.reshape(len(keys32), M, L, -1)
    norm = np.einsum("pmlb,pmlb->pmb", keys, keys)
    norm += np.float32(EPS_NORM)
    np.sqrt(norm, out=norm)
    score = np.matmul(q.astype(np.float32)[:, None, :], keys)[:, :, 0]
    score /= norm
    a = (key_err * omega).astype(np.float32)[:, None] * norms.astype(np.float32)[:, None, :]
    r = norm * np.float32(1.0 - _gamma(L + 6, u32)) - a
    delta = a / np.maximum(r, a / 3.0, out=r)
    delta += np.float32(score_err)
    lower = score - delta
    kth = np.partition(lower.transpose(1, 0, 2).reshape(M, -1)[:, :n], n - k, axis=1)[:, n - k]
    score += delta
    keep = score >= kth[:, None]
    return keep.transpose(1, 0, 2).reshape(M, -1)[:, :n]


def _scores(maps: np.ndarray, q: np.ndarray, block: np.ndarray, c: int) -> np.ndarray:
    """Float64 cosine scores (M, c) of the unit query keys ``q`` against ``block``'s first c keys.

    ``block`` holds key-input columns as (panels, p + 1, panel width).
    Keying it block by block gives every GEMM one shape, so an entry's bits
    do not depend on which entries are keyed beside it. One GEMM over all of
    them would not do: a BLAS rounds its edge columns differently from its
    full-width ones, so two copies of a context could score apart.
    """
    M, L, width = maps.shape
    keys = np.matmul(maps.reshape(M * L, width), block).reshape(len(block), M, L, -1)
    sq = np.einsum("pmlb,pmlb->pmb", keys, keys)
    if not np.all(np.isfinite(sq)):
        raise NumericError("a retrieval key overflowed: its squared norm is not finite")
    scores = np.matmul(q[:, None, :], keys)[:, :, 0]
    scores *= 1.0 / np.sqrt(sq + EPS_NORM)
    return scores.transpose(1, 0, 2).reshape(M, -1)[:, :c]


def normalize_keys(
    maps: np.ndarray, query_z: np.ndarray, store: CalibrationStore, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cosine scores of one query under each of M maps, for the entries that can win.

    ``maps`` stacks M folded key maps ``[A | b]`` as (M, L, p + 1), which key
    the store's key inputs (whose last row is 1) as ``A x + b``; each expert
    keeps the top ``k``. Returns the chronological positions of the candidate
    entries, ascending, and their (M, c) float64 scores ``q . k /
    sqrt(|k|^2 + EPS_NORM)`` against the normalised query key ``q``. Every
    entry is a candidate when the store holds fewer than
    ``_FILTER_MIN_ENTRIES``, when k reaches its size, or when the
    float32 filter (``_candidates``) cannot bound the keys; otherwise only
    the filter's union over the experts is scored in float64, and it
    contains every expert's float64 top-k. Either way the scores come from
    blocks of one shape (``_scores``), so an entry scores the same bits.
    Raises ``NumericError`` when a scored key's squared norm is not finite;
    such a key is beyond the filter's range, so every entry is scored and
    an overflowing key never scores 0.
    """
    n = len(store)
    q = maps @ np.append(query_z, 1.0)
    q_sq = np.einsum("ml,ml->m", q, q)
    if not np.all(np.isfinite(q_sq)):
        raise NumericError("a retrieval key overflowed: its squared norm is not finite")
    q *= (1.0 / np.sqrt(q_sq + EPS_NORM))[:, None]
    mask = None
    if n >= _FILTER_MIN_ENTRIES and k < n:
        mask = _candidates(maps, q, store, k)
    if mask is None:  # every entry, keyed in the store's own blocks
        return np.arange(n), store.chronological(_scores(maps, q, store.key_panels(), n))
    # ring position j holds chronological entry (j - oldest) % n
    positions = np.sort((np.flatnonzero(mask.any(axis=0)) - store.oldest) % n)
    block = store.key_panels((positions + store.oldest) % n)
    return positions, _scores(maps, q, block, positions.size)


# serving ranks with training's row top-k; tracers patch it under this name
topk_retrieve = ad.topk_rows


@dataclass
class RetrievalExpert:
    """One retrieval head: an encoder and the model whose ``top_k`` and ``beta`` it retrieves by."""

    encoder: HypernetworkParams | FixedAffineMap
    config: ModelConfig


class ExpertStack(Sequence):
    """A model's M retrieval experts, with their weights stacked once for serving.

    The experts are all of one encoder kind. Hypernetwork experts share one
    architecture, and ``layers`` stacks each layer as (M, out, in) weights
    and (M, out) biases. For fixed-affine experts ``layers`` is empty and
    ``flat`` holds each expert's map ``[A.ravel(), b]`` as one row, in the
    layout a hypernetwork emits. The experts' weights are views of these
    arrays. Indexing gives the experts; ``config`` is the one
    ``ModelConfig`` they all share.
    """

    def __init__(self, experts, layers, flat: np.ndarray | None = None):
        self.experts, self.layers, self.flat = list(experts), list(layers), flat
        configs = {e.config for e in self.experts}
        if len(configs) != 1:
            raise DataError("experts served together must share one ModelConfig")
        (self.config,) = configs
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
) -> tuple[np.ndarray, np.ndarray]:
    """Every expert's top-k weighted support for one query, from one key pass.

    ``query_z`` and ``feats`` are the query as the encoders read it and the
    descriptor features, as ``store.query`` gives them. The M folded maps
    score the entries that can win (``normalize_keys``), oldest first, so
    ties go to the older entry. Returns the (M, k) chronological store
    positions of each expert's support, best first, and their (M, k)
    softmax weights at temperature ``1 / beta``; k is the shared ``top_k``,
    clipped to the store's size.
    """
    if len(store) == 0:
        raise DataError("cannot retrieve from an empty calibration store")
    if not np.all(np.isfinite(query_z)):
        raise NumericError("the z-scored query is not finite")
    config = experts.config
    maps = experts.maps(query_z, feats)
    positions, scores = normalize_keys(maps, query_z, store, config.top_k)
    pick = topk_retrieve(scores, config.top_k)
    top = np.take_along_axis(scores, pick, axis=1)
    return positions[pick], ad.softmax(top, 1.0 / config.beta)
