"""Independent numpy recomputation of intervals, used to check the program.

The serving check rebuilds a RareCP interval from the public components:
each expert's emitted key map, a full ``argsort`` top-k over the whole
normalised store, temperature-softmax support weights, the gate softmax,
the weight-space mix and a full-sort weighted quantile. The baseline check
uses closed-form uniform and NexCP weights. A later change that
approximates retrieval or quantiles to go faster fails these checks.

A comparison the reference cannot decide (two keys tied at the top-k
boundary, or a cumulative weight within ``TIE`` of the quantile level)
is reported as ambiguous rather than as a failure.
"""

from __future__ import annotations

import math

import numpy as np

from rarecp.autodiff import Tensor

TOL = 1e-9  # relative tolerance on interval bounds
TIE = 1e-10  # score or cumulative-weight gap treated as a tie
EPS_NORM = 1e-12  # the epsilon rarecp adds under the key-norm square root


def _array(value) -> np.ndarray:
    return np.asarray(value.data if isinstance(value, Tensor) else value, dtype=np.float64)


def _unit_columns(keys: np.ndarray) -> np.ndarray:
    return keys / np.sqrt((keys * keys).sum(axis=0) + EPS_NORM)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def weighted_quantile(residuals, weights, tau: float) -> tuple[float, bool]:
    """Full-sort weighted quantile and whether ``tau`` sits on a boundary."""
    order = np.argsort(residuals, kind="stable")
    cum = np.cumsum(weights[order])
    idx = min(int(np.searchsorted(cum, tau, side="left")), cum.size - 1)
    tied = abs(cum[idx] - tau) < TIE or (idx > 0 and abs(cum[idx - 1] - tau) < TIE)
    return float(residuals[order[idx]]), tied


def _interval(forecast, residuals, weights, alpha) -> tuple[float, float, bool]:
    lo, tie_lo = weighted_quantile(residuals, weights, alpha / 2.0)
    hi, tie_hi = weighted_quantile(residuals, weights, 1.0 - alpha / 2.0)
    return forecast + lo, forecast + hi, tie_lo or tie_hi


def rarecp_interval(est, contexts, residuals, x, forecast, alpha):
    """Reference RareCP interval for one query against a store snapshot."""
    desc = est.descriptor_
    if est.normalize_contexts:
        qz = (x - desc.mu) / desc.sigma
        cz = (contexts - desc.mu) / desc.sigma
    else:
        qz, cz = np.asarray(x, dtype=np.float64), contexts
    ratio = desc.mu / desc.sigma
    feats = np.concatenate(
        [[float(desc.dataset_id)], np.sign(ratio) * np.log1p(np.abs(ratio)), [desc.log_n]]
    )
    n = residuals.size
    merged = np.zeros(n)
    selected = np.zeros(n, dtype=bool)
    tied = False
    pi = _softmax(_array(est.components_.gate.logits(qz, feats)))
    for p, expert in zip(pi, est.components_.experts):
        A, b = (_array(t) for t in expert.encoder.emit(qz, feats))
        keys = _unit_columns(A @ cz.T + b[:, None])
        q = _unit_columns((A @ qz + b)[:, None])[:, 0]
        scores = q @ keys
        k = min(expert.config.top_k, n)
        order = np.argsort(-scores, kind="stable")  # ties: smaller index first
        sel = order[:k]
        if k < n and scores[order[k - 1]] - scores[order[k]] < TIE:
            tied = True
        merged[sel] += p * _softmax(scores[sel] / (1.0 / expert.config.beta))
        selected[sel] = True
    union = np.flatnonzero(selected)
    lo, hi, tie_q = _interval(forecast, residuals[union], merged[union], alpha)
    return lo, hi, tied or tie_q


def baseline_interval(method, residuals, forecast, alpha, nexcp_lambda):
    """Closed-form uniform / NexCP interval over a residual window (oldest first)."""
    n = residuals.size
    if method == "nexcp":
        raw = nexcp_lambda ** np.arange(n - 1, -1, -1, dtype=np.float64)
        return _interval(forecast, residuals, raw / raw.sum(), alpha)
    ordered = np.sort(residuals)
    bounds, tied = [], False
    for tau in (alpha / 2.0, 1.0 - alpha / 2.0):
        rank = tau * n  # smallest i with i/n >= tau is ceil(tau n)
        tied = tied or abs(rank - round(rank)) < TIE * n
        bounds.append(forecast + ordered[min(max(math.ceil(rank), 1), n) - 1])
    return bounds[0], bounds[1], tied


def aci_alphas(covered, alpha, gamma, alpha_min, alpha_max) -> np.ndarray:
    """Working miscoverage level used at each step of an ACI pass."""
    out = np.empty(len(covered))
    a = alpha
    for i, c in enumerate(covered):
        out[i] = a
        a = min(max(a + gamma * (alpha - (0.0 if c else 1.0)), alpha_min), alpha_max)
    return out


def matches(value: float, reference: float) -> bool:
    return abs(value - reference) <= TOL * (1.0 + abs(reference))
