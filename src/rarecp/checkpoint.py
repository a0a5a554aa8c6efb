"""Versioned binary checkpoint of the weights inference reads.

A checkpoint is one file: the 8-byte magic ``MAGIC``, the manifest length
as a little-endian u64, a JSON manifest padded with spaces to a multiple
of 8 bytes, then a blob of little-endian float64 tensors. The manifest
holds the format version, the model config, each descriptor's dataset id
and log count, and a table giving each tensor's name, shape and byte
offset in the blob, which must be the layout the model config implies.
Expert layers are stored stacked over the M experts, so a load serves
them as ``np.frombuffer`` views of one read, with nothing copied or drawn
at random. Saving the same fitted state twice writes byte-identical
files. The teacher bank is not stored: nothing reads it after training.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from rarecp.data import DatasetDescriptor
from rarecp.errors import DataError
from rarecp.experts import (
    ExpertStack,
    FixedAffineMap,
    HypernetworkParams,
    RetrievalExpert,
    descriptor_feature_dim,
)
from rarecp.gate import GateParams
from rarecp.training import ModelConfig, Trainer

FORMAT_VERSION = 2
MAGIC = b"RARECP\x00\x02"
_HEADER = len(MAGIC) + 8
_F64 = np.dtype("<f8")


@dataclass
class RareCPComponents:
    """Everything needed to run inference: config, descriptors, parameters."""

    model: ModelConfig
    descriptors: dict[int, DatasetDescriptor]
    experts: ExpertStack
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
    if trainer.experts is None or trainer.gate is None:
        raise DataError("trainer has not completed all three stages")
    descriptors = {
        ds.descriptor.dataset_id: ds.descriptor for ds in trainer.datasets
    }
    return RareCPComponents(
        model=trainer.model,
        descriptors=descriptors,
        experts=ExpertStack.of(trainer.experts),
        gate=trainer.gate,
    )


def _tensor_table(model: ModelConfig, dataset_ids) -> list[dict]:
    """Name, shape and blob offset of every stored tensor, in blob order, as ``model`` implies."""
    p, M = model.context_dim, model.n_experts
    inputs = p + descriptor_feature_dim(p)
    shapes = []
    for d in dataset_ids:
        shapes += [(f"descriptor.{d}.mu", [p]), (f"descriptor.{d}.sigma", [p])]
    if model.encoder_kind == "hypernetwork":
        sizes = [inputs] + [model.hidden_dim] * model.hidden_layers
        sizes.append(model.latent_dim * (p + 1))
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            shapes += [(f"experts.w{i}", [M, fan_out, fan_in]), (f"experts.b{i}", [M, fan_out])]
    else:
        shapes.append(("experts.maps", [M, model.latent_dim * (p + 1)]))
    sizes = [inputs, model.gate_hidden_dim, M]
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        shapes += [(f"gate.w{i}", [fan_out, fan_in]), (f"gate.b{i}", [fan_out])]
    table, offset = [], 0
    for name, shape in shapes:
        table.append({"name": name, "shape": shape, "offset": offset})
        offset += math.prod(shape) * _F64.itemsize
    return table


def save_checkpoint(components: RareCPComponents, path) -> None:
    """Write ``components`` to ``path``; an OS failure raises ``DataError``.

    The bytes go to a temporary file beside ``path``, which then replaces
    it, so a failed or interrupted save leaves any previous checkpoint whole.
    """
    descriptors = sorted(components.descriptors.items())
    stack = components.experts
    arrays = [a for _, d in descriptors for a in (d.mu, d.sigma)]
    arrays += [t for layer in stack.layers for t in layer] if stack.layers else [stack.flat]
    arrays += [t.data for layer in components.gate.layers for t in layer]
    table = _tensor_table(components.model, [k for k, _ in descriptors])
    if [list(a.shape) for a in arrays] != [t["shape"] for t in table]:
        raise DataError("the components' tensors do not have the shapes their model implies")
    manifest = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "model": asdict(components.model),
            "descriptors": [
                {"dataset_id": d.dataset_id, "log_n": float(d.log_n)} for _, d in descriptors
            ],
            "tensors": table,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    manifest += b" " * (-len(manifest) % 8)
    blob = b"".join(np.ascontiguousarray(a, dtype=_F64).tobytes() for a in arrays)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(MAGIC + struct.pack("<Q", len(manifest)) + manifest + blob)
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write checkpoint {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> RareCPComponents:
    """Components saved by ``save_checkpoint``, as views of one read of the file.

    A missing or unreadable file, another format version, and a truncated,
    inconsistent or non-finite file all raise ``DataError``.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if data[: len(MAGIC)] != MAGIC:
        version = re.match(rb'\{"format_version":(\d+)', data)
        if version is not None:
            raise DataError(
                f"checkpoint {path} has format version {int(version[1])}; "
                f"this version reads only version {FORMAT_VERSION}"
            )
        raise DataError(f"{path} is not a rarecp checkpoint (bad magic)")
    try:
        return _components_from_bytes(data)
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise DataError(
            f"checkpoint {path} is truncated or malformed: {type(exc).__name__}: {exc}"
        ) from exc


def _components_from_bytes(data: bytes) -> RareCPComponents:
    (length,) = struct.unpack_from("<Q", data, len(MAGIC))
    if length % 8 or _HEADER + length > len(data):
        raise ValueError(f"a manifest of {length} bytes does not fit the file")
    doc = json.loads(data[_HEADER : _HEADER + length])
    if not isinstance(doc, dict):
        raise TypeError("the manifest is not a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint format version {doc.get('format_version')!r}")
    model = ModelConfig(**doc["model"])
    table = _tensor_table(model, [d["dataset_id"] for d in doc["descriptors"]])
    if doc["tensors"] != table:
        raise ValueError(f"the tensor table differs from the one its model implies: {table}")
    blob = memoryview(data)[_HEADER + length :]
    end = table[-1]["offset"] + math.prod(table[-1]["shape"]) * _F64.itemsize
    if len(blob) != end:
        raise ValueError(f"the blob has {len(blob)} bytes where its tensor table needs {end}")
    values = np.frombuffer(blob, _F64)
    if not np.all(np.isfinite(values)):
        raise ValueError("a stored weight is not finite")
    tensors = {}
    for t in table:
        start = t["offset"] // _F64.itemsize
        tensors[t["name"]] = values[start : start + math.prod(t["shape"])].reshape(t["shape"])

    def layers(prefix: str, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(tensors[f"{prefix}.w{i}"], tensors[f"{prefix}.b{i}"]) for i in range(n)]

    M, L, p = model.n_experts, model.latent_dim, model.context_dim
    if model.encoder_kind == "hypernetwork":
        stacked, flat = layers("experts", model.hidden_layers + 1), None
        encoders = [
            HypernetworkParams.from_arrays([(w[m], b[m]) for w, b in stacked], model.activation)
            for m in range(M)
        ]
    else:
        stacked, flat = [], tensors["experts.maps"]
        encoders = [FixedAffineMap.from_arrays(r[: L * p].reshape(L, p), r[L * p :]) for r in flat]
    config = model.expert_config()
    experts = [RetrievalExpert(encoder=encoder, config=config) for encoder in encoders]
    descriptors = {
        d["dataset_id"]: DatasetDescriptor(
            dataset_id=d["dataset_id"],
            mu=tensors[f"descriptor.{d['dataset_id']}.mu"],
            sigma=tensors[f"descriptor.{d['dataset_id']}.sigma"],
            log_n=float(d["log_n"]),
        )
        for d in doc["descriptors"]
    }
    return RareCPComponents(
        model=model,
        descriptors=descriptors,
        experts=ExpertStack(experts, stacked, flat),
        gate=GateParams.from_arrays(layers("gate", 2), model.activation),
    )


def checkpoint_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
