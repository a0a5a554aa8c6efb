"""Estimator-style wrappers around the conformal machinery.

Both estimators follow the usual contract: hyperparameters go to the
constructor under stable names, ``fit`` ingests the initial calibration
data and returns ``self``, prediction methods require a fitted state, and
``get_params``/``set_params`` expose the configuration. After fitting they
run online: ``observe`` feeds each newly revealed residual into the FIFO
calibration window.
"""

from __future__ import annotations

from dataclasses import asdict
from functools import cache

import numpy as np

from rarecp.base import BaseEstimator
from rarecp.checkpoint import (
    RareCPComponents,
    components_from_trainer,
    load_checkpoint,
    save_checkpoint,
)
from rarecp.conformal import (
    PredictionInterval,
    WeightedSupport,
    baseline_interval,
    baseline_weights,
)
from rarecp.data import (
    CalibrationEntry,
    CalibrationStore,
    DatasetDescriptor,
    compute_descriptor,
)
from rarecp.errors import DataError
from rarecp.gate import mixed_support, rarecp_interval
from rarecp.training import ModelConfig, TrainConfig, Trainer, config_from
from rarecp.validation import (
    check_count, check_finite, check_fitted, check_int, check_unit_interval, check_vector,
    check_weighting,
)


@cache
def _zero_context(dim: int) -> np.ndarray:
    """The read-only context ``SplitConformal.observe`` appends when given none."""
    context = np.zeros(dim)
    context.flags.writeable = False
    return context


class SplitConformal(BaseEstimator):
    """Split conformal intervals with uniform or recency-decayed weights.

    ``weighting="uniform"`` is classical split conformal prediction;
    ``weighting="nexcp"`` decays calibration weights geometrically with
    age at rate ``nexcp_lambda``.
    """

    def __init__(
        self,
        alpha: float = 0.2,
        weighting: str = "uniform",
        nexcp_lambda: float = 0.99,
        capacity: int | None = None,
    ):
        self.alpha = alpha
        self.weighting = weighting
        self.nexcp_lambda = nexcp_lambda
        self.capacity = capacity
        self.store_ = None

    def fit(self, X, y) -> "SplitConformal":
        """Seed the calibration window from contexts ``X`` and residuals ``y``.

        ``X`` may be ``None``; these baselines only use the residuals, but
        contexts are accepted so all estimators share one surface. An unknown
        ``weighting`` or a ``nexcp_lambda`` outside (0, 1] raises ``DataError``;
        a numeric ``nexcp_lambda`` is kept as a float.
        """
        self.nexcp_lambda = check_weighting(self.weighting, self.nexcp_lambda)
        y = check_vector(y, "y")
        if X is None:
            X = np.zeros((y.size, 1))
        self.store_ = CalibrationStore.from_arrays(X, y, self.capacity)
        self._next_time = y.size
        return self

    def set_params(self, **params) -> "SplitConformal":
        """Set parameters; once fitted, settings ``fit`` refuses raise ``DataError``, unkept,
        and a numeric ``nexcp_lambda`` is kept as a float."""
        if self.store_ is not None:
            nexcp_lambda = check_weighting(params.get("weighting", self.weighting),
                                           params.get("nexcp_lambda", self.nexcp_lambda))
            if "nexcp_lambda" in params:
                params = {**params, "nexcp_lambda": nexcp_lambda}
        return super().set_params(**params)

    def weighted_support(self) -> WeightedSupport:
        check_fitted(self, "store_")
        return baseline_weights(
            self.store_.residuals(), mode=self.weighting, nexcp_lambda=self.nexcp_lambda
        )

    def predict_interval(self, forecast: float, alpha: float | None = None) -> PredictionInterval:
        check_fitted(self, "store_")
        return baseline_interval(
            check_finite(forecast, "forecast"), self.store_, self.alpha if alpha is None else alpha,
            mode=self.weighting, nexcp_lambda=self.nexcp_lambda,
        )

    def observe(self, residual: float, context=None, time_index: int | None = None) -> None:
        """Append one observed residual to the FIFO window."""
        check_fitted(self, "store_")
        if context is None:
            context = _zero_context(self.store_.context_dim)
        if time_index is None:
            time_index = self._next_time
        self.store_.append(
            CalibrationEntry(context=context, residual=residual, time_index=time_index)
        )
        self._next_time = int(time_index) + 1


class RareCP(BaseEstimator):
    """Regime-aware retrieval conformal predictor.

    ``fit`` trains the full stack on the initial calibration set (teacher
    bank, hypernetwork retrieval experts anchored to the teachers, then
    the gate) and seeds the FIFO calibration window. ``predict_interval``
    retrieves each expert's top-k residual support under the current
    query-conditioned key map, mixes the supports through the gate, and
    reads off the weighted residual quantiles.
    """

    def __init__(
        self,
        alpha: float = 0.2,
        n_experts: int = 3,
        top_k: int = 32,
        beta: float = 12.0,
        latent_dim: int = 32,
        hidden_dim: int = 96,
        hidden_layers: int = 2,
        activation: str = "tanh",
        encoder_kind: str = "hypernetwork",
        gate_hidden_dim: int = 4,
        window: int = 64,
        include_forecast: bool = True,
        normalize_contexts: bool = True,
        lambda_anchor: float = 5.0,
        lambda_entropy: float = 0.02,
        student_lr: float = 1e-3,
        gate_lr: float = 4e-3,
        teacher_lr: float = 1e-3,
        epochs: int = 100,
        teacher_epochs: int = 20,
        batch_size: int = 256,
        tau_start: float = 0.05,
        tau_end: float = 1e-4,
        tau_p: float = 5e-4,
        n_cycles: int = 4,
        capacity: int | None = None,
        seed: int = 0,
    ):
        self.alpha = alpha
        self.n_experts = n_experts
        self.top_k = top_k
        self.beta = beta
        self.latent_dim = latent_dim
        self.hidden_dim = hidden_dim
        self.hidden_layers = hidden_layers
        self.activation = activation
        self.encoder_kind = encoder_kind
        self.gate_hidden_dim = gate_hidden_dim
        self.window = window
        self.include_forecast = include_forecast
        self.normalize_contexts = normalize_contexts
        self.lambda_anchor = lambda_anchor
        self.lambda_entropy = lambda_entropy
        self.student_lr = student_lr
        self.gate_lr = gate_lr
        self.teacher_lr = teacher_lr
        self.epochs = epochs
        self.teacher_epochs = teacher_epochs
        self.batch_size = batch_size
        self.tau_start = tau_start
        self.tau_end = tau_end
        self.tau_p = tau_p
        self.n_cycles = n_cycles
        self.capacity = capacity
        self.seed = seed
        self.components_: RareCPComponents | None = None
        self.store_ = None
        self.train_log_ = None
        self._changed_since_fit: dict = {}

    # -- configuration ------------------------------------------------------

    def model_config(self) -> ModelConfig:
        return config_from(ModelConfig, self)

    def train_config(self) -> TrainConfig:
        return config_from(TrainConfig, self)

    def set_params(self, **params) -> "RareCP":
        """Set parameters, noting the model fields that now differ from the fitted model's.

        On a fitted estimator a new ``capacity`` takes effect at the next
        ``seed_store``; the current window keeps its capacity until then.
        """
        super().set_params(**params)
        if self.components_ is not None:
            trained = asdict(self.components_.model)
            self._changed_since_fit = {n: v for n, v in trained.items() if getattr(self, n) != v}
        return self

    def _trained_components(self) -> RareCPComponents:
        """The fitted components, refused while a model field differs from the trained one."""
        check_fitted(self, "components_")
        if changed := self._changed_since_fit:
            raise DataError(f"the model was trained with {changed}: set them back or fit again")
        return self.components_

    # -- fitting --------------------------------------------------------------

    def fit(self, X, y, dataset_id: int = 0) -> "RareCP":
        """Train on the initial calibration contexts ``X`` and residuals ``y``.

        Training reads them through a store conditioned as ``seed_store``
        conditions the window, which it then seeds, as a reloaded model would.
        """
        store = CalibrationStore.from_arrays(X, y)
        model = self.model_config()
        if store.context_dim != model.context_dim:
            raise DataError(
                f"X has {store.context_dim} features but window={self.window} and "
                f"include_forecast={self.include_forecast} imply {model.context_dim}"
            )
        if self.capacity is not None:
            # seed_store refuses a bad one too, but only once training is done
            check_count(self.capacity, "store capacity")
        dataset_id = check_int(dataset_id, "dataset_id")
        store.condition(compute_descriptor(store.contexts(), dataset_id), model.normalize_contexts)
        trainer = Trainer([store], model, self.train_config()).run()
        self.components_ = components_from_trainer(trainer)
        self._changed_since_fit = {}
        self.train_log_ = trainer.log
        self._dataset_id = dataset_id
        self.seed_store(X, y)
        return self

    @classmethod
    def from_components(cls, components: RareCPComponents, dataset_id: int = 0) -> "RareCP":
        """An estimator serving ``components`` for ``dataset_id`` (store left empty).

        The dataset id must be one the components were trained on.
        """
        dataset_id = check_int(dataset_id, "dataset_id")
        if dataset_id not in components.dataset_ids:
            raise DataError(
                f"the model was not trained on dataset {dataset_id}; "
                f"known ids: {list(components.dataset_ids)}"
            )
        est = cls(**asdict(components.model))
        est.components_ = components
        est._dataset_id = dataset_id
        return est

    @classmethod
    def from_checkpoint(cls, path, dataset_id: int = 0) -> "RareCP":
        """``from_components`` of the components saved at ``path``."""
        return cls.from_components(load_checkpoint(path), dataset_id)

    def save(self, path) -> None:
        check_fitted(self, "components_")
        save_checkpoint(self.components_, path)

    def seed_store(self, X, y, start_time: int = 0) -> None:
        """Seed the FIFO window (``fit`` ends with it; call it after ``from_checkpoint``).

        The store is conditioned on the descriptor of the seeded window,
        which is the initial calibration set of the run being started. Model
        parameters changed by ``set_params`` since training raise ``DataError``.
        The window takes the ``capacity`` set at this call, which is where a
        ``set_params(capacity=...)`` after fitting takes effect.
        """
        model = self._trained_components().model
        store = CalibrationStore.from_arrays(X, y, self.capacity, start_time)
        if store.context_dim != model.context_dim:
            raise DataError(
                f"X has {store.context_dim} features, expected {model.context_dim}"
            )
        store.condition(
            compute_descriptor(store.contexts(), self._dataset_id), model.normalize_contexts
        )
        self.store_ = store
        self._next_time = int(start_time) + len(y)

    @property
    def descriptor_(self) -> DatasetDescriptor | None:
        """The descriptor the store is conditioned on, or None before ``seed_store``."""
        return None if self.store_ is None else self.store_.descriptor

    # -- prediction -------------------------------------------------------------

    def _query(self, x) -> np.ndarray:
        self._trained_components()
        check_fitted(self, "store_")
        x = check_vector(x, "x")
        if x.size != self.store_.context_dim:
            raise DataError(
                f"query x has {x.size} features, expected {self.store_.context_dim}"
            )
        return x

    def weighted_support(self, x) -> WeightedSupport:
        """Gate-mixed residual support for one query context."""
        x = self._query(x)
        support, _, _ = mixed_support(
            self.store_, self.components_.experts, self.components_.gate, x
        )
        return support

    def predict_interval(
        self, x, forecast: float, alpha: float | None = None
    ) -> PredictionInterval:
        x = self._query(x)
        alpha = check_unit_interval(self.alpha if alpha is None else alpha, "alpha")
        return rarecp_interval(
            check_finite(forecast, "forecast"),
            x,
            self.store_,
            self.components_.experts,
            self.components_.gate,
            alpha,
        )

    def observe(self, x, residual: float, time_index: int | None = None) -> None:
        """Append one observed (context, residual) pair to the FIFO window."""
        check_fitted(self, "store_")
        if time_index is None:
            time_index = self._next_time
        self.store_.append(
            CalibrationEntry(context=check_vector(x, "x"), residual=residual, time_index=time_index)
        )
        self._next_time = int(time_index) + 1
