"""Versioned checkpoint format for fitted components.

A checkpoint is a single JSON document: a manifest (format version, expert
count, latent dim, context dim, full model config) plus named tensors as
shape + row-major values. Floats serialize via their shortest round-trip
representation, so saving the same fitted state twice produces
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from rarecp.data import DatasetDescriptor
from rarecp.errors import DataError
from rarecp.experts import FixedAffineMap, HypernetworkParams, RetrievalExpert
from rarecp.gate import GateParams
from rarecp.training import ModelConfig, Trainer

FORMAT_VERSION = 1


@dataclass
class RareCPComponents:
    """Everything needed to run inference: config, descriptors, parameters."""

    model: ModelConfig
    descriptors: dict[int, DatasetDescriptor]
    experts: list[RetrievalExpert]
    teachers: list[dict[int, tuple[np.ndarray, np.ndarray]]]
    gate: GateParams

    def descriptor_for(self, dataset_id: int) -> DatasetDescriptor:
        try:
            return self.descriptors[int(dataset_id)]
        except KeyError:
            raise DataError(
                f"checkpoint has no descriptor for dataset {dataset_id}; "
                f"known ids: {sorted(self.descriptors)}"
            ) from None


def components_from_trainer(trainer: Trainer) -> RareCPComponents:
    if trainer.experts is None or trainer.gate is None or trainer.teachers is None:
        raise DataError("trainer has not completed all three stages")
    descriptors = {
        ds.descriptor.dataset_id: ds.descriptor for ds in trainer.datasets
    }
    teachers = []
    for per_dataset in trainer.teachers:
        bank = {}
        for ds, teacher in zip(trainer.datasets, per_dataset):
            bank[ds.descriptor.dataset_id] = teacher.as_arrays()
        teachers.append(bank)
    return RareCPComponents(
        model=trainer.model,
        descriptors=descriptors,
        experts=trainer.experts,
        teachers=teachers,
        gate=trainer.gate,
    )


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _tensor_record(array: np.ndarray) -> dict:
    array = np.asarray(array, dtype=np.float64)
    return {"shape": list(array.shape), "data": [float(v) for v in array.reshape(-1)]}


def _tensor_from_record(record: dict) -> np.ndarray:
    return np.asarray(record["data"], dtype=np.float64).reshape(record["shape"])


def _encoder_record(encoder) -> dict:
    if isinstance(encoder, HypernetworkParams):
        tensors = {}
        for i, (w, b) in enumerate(encoder.layers):
            tensors[f"w{i}"] = _tensor_record(w.data)
            tensors[f"b{i}"] = _tensor_record(b.data)
        return {
            "kind": "hypernetwork",
            "hidden_dim": encoder.hidden_dim,
            "hidden_layers": encoder.hidden_layers,
            "activation": encoder.activation,
            "tensors": tensors,
        }
    if isinstance(encoder, FixedAffineMap):
        return {
            "kind": "fixed_affine",
            "tensors": {
                "A": _tensor_record(encoder.A.data),
                "b": _tensor_record(encoder.b.data),
            },
        }
    raise DataError(f"cannot serialize encoder of type {type(encoder).__name__}")


def _encoder_from_record(record: dict, model: ModelConfig):
    if record["kind"] == "hypernetwork":
        encoder = HypernetworkParams(
            context_dim=model.context_dim,
            latent_dim=model.latent_dim,
            hidden_dim=record["hidden_dim"],
            hidden_layers=record["hidden_layers"],
            activation=record["activation"],
            seed=0,
        )
        for i, (w, b) in enumerate(encoder.layers):
            w_rec = _tensor_from_record(record["tensors"][f"w{i}"])
            b_rec = _tensor_from_record(record["tensors"][f"b{i}"])
            if w_rec.shape != w.data.shape or b_rec.shape != b.data.shape:
                raise DataError("checkpoint tensor shape mismatch for hypernetwork")
            w.data = w_rec
            b.data = b_rec
        return encoder
    if record["kind"] == "fixed_affine":
        encoder = FixedAffineMap(model.context_dim, model.latent_dim, seed=0)
        A = _tensor_from_record(record["tensors"]["A"])
        b = _tensor_from_record(record["tensors"]["b"])
        if A.shape != encoder.A.data.shape or b.shape != encoder.b.data.shape:
            raise DataError("checkpoint tensor shape mismatch for fixed_affine")
        encoder.A.data = A
        encoder.b.data = b
        return encoder
    raise DataError(f"unknown encoder kind {record['kind']!r} in checkpoint")


def save_checkpoint(components: RareCPComponents, path) -> None:
    model = components.model
    doc = {
        "format_version": FORMAT_VERSION,
        "n_experts": model.n_experts,
        "latent_dim": model.latent_dim,
        "context_dim": model.context_dim,
        "model": asdict(model),
        "descriptors": {
            str(k): {
                "dataset_id": d.dataset_id,
                "mu": _tensor_record(d.mu),
                "sigma": _tensor_record(d.sigma),
                "log_n": float(d.log_n),
            }
            for k, d in sorted(components.descriptors.items())
        },
        "experts": [_encoder_record(e.encoder) for e in components.experts],
        "teachers": [
            {
                str(k): {"A": _tensor_record(A), "b": _tensor_record(b)}
                for k, (A, b) in sorted(bank.items())
            }
            for bank in components.teachers
        ],
        "gate": {
            "hidden_dim": components.gate.hidden_dim,
            "activation": components.gate.activation,
            "tensors": {
                f"{name}{i}": _tensor_record(t.data)
                for i, (w, b) in enumerate(components.gate.layers)
                for name, t in (("w", w), ("b", b))
            },
        },
    }
    payload = json.dumps(doc, separators=(",", ":"))
    Path(path).write_text(payload, encoding="utf-8", newline="\n")


def load_checkpoint(path) -> RareCPComponents:
    """Components saved by ``save_checkpoint``.

    A missing, truncated or malformed file raises ``DataError``.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise DataError("checkpoint is not a JSON object")
        return _components_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"checkpoint {path} is truncated or malformed: {type(exc).__name__}: {exc}"
        ) from exc


def _components_from_doc(doc: dict) -> RareCPComponents:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint format version {version!r}")
    model = ModelConfig(**doc["model"])
    descriptors = {}
    for key, rec in doc["descriptors"].items():
        descriptors[int(key)] = DatasetDescriptor(
            dataset_id=rec["dataset_id"],
            mu=_tensor_from_record(rec["mu"]),
            sigma=_tensor_from_record(rec["sigma"]),
            log_n=rec["log_n"],
        )
    experts = [
        RetrievalExpert(
            encoder=_encoder_from_record(rec, model), config=model.expert_config()
        )
        for rec in doc["experts"]
    ]
    if len(experts) != model.n_experts:
        raise DataError("checkpoint expert count does not match its model config")
    teachers = []
    for bank in doc["teachers"]:
        teachers.append(
            {
                int(k): (_tensor_from_record(v["A"]), _tensor_from_record(v["b"]))
                for k, v in bank.items()
            }
        )
    gate = GateParams(
        context_dim=model.context_dim,
        n_experts=model.n_experts,
        hidden_dim=doc["gate"]["hidden_dim"],
        activation=doc["gate"]["activation"],
        seed=0,
    )
    for i, (w, b) in enumerate(gate.layers):
        w_rec = _tensor_from_record(doc["gate"]["tensors"][f"w{i}"])
        b_rec = _tensor_from_record(doc["gate"]["tensors"][f"b{i}"])
        if w_rec.shape != w.data.shape or b_rec.shape != b.data.shape:
            raise DataError("checkpoint tensor shape mismatch for gate")
        w.data = w_rec
        b.data = b_rec
    return RareCPComponents(
        model=model,
        descriptors=descriptors,
        experts=experts,
        teachers=teachers,
        gate=gate,
    )


def checkpoint_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
