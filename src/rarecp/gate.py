"""Gate network over experts and mixing of expert supports in weight space.

The gate maps (query, descriptor) to simplex weights over the M experts.
Mixing happens on residual weights, not on keys or logits: the final
weight of calibration index i is ``sum_m pi_m * v_{m,i}`` over the experts
whose support contains i, which preserves each expert's local neighborhood
while letting the mixture switch between error regimes.
"""

from __future__ import annotations

import numpy as np

from rarecp.autodiff import Tensor
from rarecp.conformal import PredictionInterval, WeightedSupport, build_interval
from rarecp.data import CalibrationStore, descriptor_feature_dim
from rarecp.errors import DataError
from rarecp.experts import (
    ExpertStack,
    RetrievalResult,
    _mlp_init,
    _wrap_layers,
    query_forward,
    retrieve_supports,
    support_weights,
)


class GateParams:
    """Small MLP producing M expert logits from (query, descriptor).

    The final layer starts at zero, so an untrained gate mixes experts
    uniformly.
    """

    def __init__(
        self,
        context_dim: int,
        n_experts: int,
        hidden_dim: int = 4,
        activation: str = "tanh",
        seed: int = 0,
    ):
        if n_experts < 1:
            raise DataError("gate needs at least one expert")
        self.activation = activation
        input_dim = context_dim + descriptor_feature_dim(context_dim)
        rng = np.random.default_rng([seed, 303])
        self.layers = _mlp_init([input_dim, hidden_dim, n_experts], rng)
        w_last, b_last = self.layers[-1]
        w_last.data = np.zeros_like(w_last.data)
        b_last.data = np.zeros_like(b_last.data)

    @classmethod
    def from_arrays(cls, layers, activation: str) -> "GateParams":
        """A gate wrapping given (weight, bias) arrays, uncopied."""
        return _wrap_layers(cls, layers, activation)

    def parameters(self) -> list[Tensor]:
        return [t for pair in self.layers for t in pair]

    def logits(self, query_z: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """Expert logits for one query."""
        layers = [(w.data, b.data) for w, b in self.layers]
        return query_forward(layers, query_z, feats, self.activation)


def gate_weights(params: GateParams, query_z: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Softmax simplex weights over experts for one query.

    ``query_z`` and ``feats`` are the query and descriptor features as the
    experts read them (see ``CalibrationStore.query``).
    """
    return support_weights(params.logits(query_z, feats), 1.0)


def mix_supports(
    pi: np.ndarray, retrievals: list[RetrievalResult]
) -> tuple[WeightedSupport, np.ndarray]:
    """Mix expert supports in residual-weight space.

    A calibration index appearing in several expert supports has its
    weights summed; total mass stays 1. Returns the merged support and the
    union of calibration indices (sorted, deterministic).
    """
    pi = np.asarray(pi, dtype=np.float64)
    if pi.ndim != 1 or pi.size != len(retrievals):
        raise DataError("pi must assign one weight per expert support")
    if np.any(pi < 0) or abs(float(pi.sum()) - 1.0) > 1e-9:
        raise DataError("pi must be simplex weights")
    all_indices = np.concatenate([r.support_indices for r in retrievals])
    all_weights = np.concatenate(
        [p * r.weights for p, r in zip(pi, retrievals)]
    )
    all_residuals = np.concatenate([r.residuals for r in retrievals])
    union, inverse = np.unique(all_indices, return_inverse=True)
    merged = np.zeros(union.size)
    np.add.at(merged, inverse, all_weights)
    residuals = np.zeros(union.size)
    residuals[inverse] = all_residuals
    return WeightedSupport(residuals, merged), union


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
    retrievals = retrieve_supports(experts, store, query_z, feats)
    pi = gate_weights(gate, query_z, feats)
    support, union = mix_supports(pi, retrievals)
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
