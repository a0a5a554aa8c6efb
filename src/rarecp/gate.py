"""Gate network over experts and mixing of expert supports in weight space.

The gate maps (query, descriptor) to simplex weights over the M experts.
Mixing happens on residual weights, not on keys or logits: the final
weight of calibration index i is ``sum_m pi_m * v_{m,i}`` over the experts
whose support contains i, which preserves each expert's local neighborhood
while letting the mixture switch between error regimes. The gate's
weights are plain numpy arrays, as the experts' are.
"""

from __future__ import annotations

import numpy as np

from rarecp import autodiff as ad
from rarecp.conformal import PredictionInterval, WeightedSupport, build_interval
from rarecp.data import CalibrationStore, descriptor_feature_dim
from rarecp.errors import DataError
from rarecp.experts import ExpertStack, _mlp_init, query_forward, retrieve_supports
from rarecp.validation import check_choice


class GateParams:
    """Small MLP producing M expert logits from (query, descriptor).

    The final layer starts at zero, so an untrained gate mixes experts
    uniformly.
    """

    def __init__(
        self,
        context_dim: int,
        n_experts: int,
        hidden_dim: int,
        activation: str,
        seed: int = 0,
    ):
        if n_experts < 1:
            raise DataError("gate needs at least one expert")
        self.activation = check_choice(activation, ad.ACTIVATIONS, "activation")
        input_dim = context_dim + descriptor_feature_dim(context_dim)
        rng = np.random.default_rng([seed, 303])
        self.layers = _mlp_init([input_dim, hidden_dim, n_experts], rng)
        self.layers[-1] = tuple(np.zeros_like(a) for a in self.layers[-1])

    @classmethod
    def from_arrays(cls, layers, activation: str) -> "GateParams":
        """A gate over given (weight, bias) arrays, uncopied."""
        self = cls.__new__(cls)
        self.layers = list(layers)
        self.activation = check_choice(activation, ad.ACTIVATIONS, "activation")
        return self

    def logits(self, query_z: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """Expert logits for one query."""
        return query_forward(self.layers, query_z, feats, self.activation)


def gate_weights(params: GateParams, query_z: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Softmax simplex weights over experts for one query.

    ``query_z`` and ``feats`` are the query and descriptor features as the
    experts read them (see ``CalibrationStore.query``).
    """
    return ad.softmax(params.logits(query_z, feats)[None], 1.0)[0]


def mix_supports(
    pi: np.ndarray, positions: np.ndarray, weights: np.ndarray, residuals: np.ndarray
) -> tuple[WeightedSupport, np.ndarray]:
    """Mix expert supports in residual-weight space.

    ``positions`` and ``weights`` hold each expert's support as (M, k) store
    positions and weights, ``residuals`` the store's residuals by position.
    A position in several supports has its weights summed, in expert order;
    total mass stays 1. Returns the merged support and the union of the
    positions (sorted, deterministic).
    """
    pi = np.asarray(pi, dtype=np.float64)
    if pi.ndim != 1 or pi.size != len(positions):
        raise DataError("pi must assign one weight per expert support")
    if np.any(pi < 0) or abs(float(pi.sum()) - 1.0) > 1e-9:
        raise DataError("pi must be simplex weights")
    in_union = np.zeros(residuals.size, dtype=bool)
    in_union[positions] = True
    union = np.flatnonzero(in_union)
    slot = np.empty(residuals.size, dtype=np.intp)
    slot[union] = np.arange(union.size)
    merged = np.zeros(union.size)
    # an expert's k positions are distinct, so each add is a plain one
    for p, slots, w in zip(pi, slot[positions], weights):
        merged[slots] += p * w
    return WeightedSupport(residuals[union], merged), union


def mixed_support(
    store: CalibrationStore,
    experts: ExpertStack,
    gate: GateParams,
    query: np.ndarray,
) -> tuple[WeightedSupport, np.ndarray, np.ndarray]:
    """Full mixture pipeline: stacked expert retrieval, gate, weight-space merge.

    The store reads the query through its descriptor once per call
    (``CalibrationStore.query``), and the experts and the gate share it.
    """
    query_z, feats = store.query(query)
    positions, weights = retrieve_supports(experts, store, query_z, feats)
    pi = gate_weights(gate, query_z, feats)
    support, union = mix_supports(pi, positions, weights, store.residuals())
    return support, union, pi


def rarecp_interval(
    forecast: float,
    query: np.ndarray,
    store: CalibrationStore,
    experts: ExpertStack,
    gate: GateParams,
    alpha: float,
) -> PredictionInterval:
    """Prediction interval from the gate-mixed expert supports.

    The final quantile is computed over at most M * k residual entries.
    """
    support, _, _ = mixed_support(store, experts, gate, query)
    return build_interval(forecast, support, alpha)
