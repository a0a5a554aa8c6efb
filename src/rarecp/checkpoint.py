"""Versioned binary checkpoint of the weights inference reads.

A checkpoint is one file: the 8-byte magic ``MAGIC``, the manifest length
as a little-endian u64, a JSON manifest padded with spaces to a multiple
of 8 bytes, then a blob of little-endian float64 tensors. The manifest
holds the format version, the model config, the ids of the datasets the
model was trained on, and a table giving each tensor's name, shape and
byte offset in the blob, which must be the layout the model config implies.
Expert layers are stored stacked over the M experts, so a load serves
them as ``np.frombuffer`` views of one read, with nothing copied or drawn
at random. Saving the same fitted state twice writes byte-identical
files. Loads of identical bytes share one set of read-only components
while any holder keeps it alive, so many streams served from one
checkpoint hold its weights once. The teacher bank and the training
descriptors are not stored: nothing reads them after training, and
serving conditions on the descriptor of the window it seeds
(``RareCP.seed_store``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import struct
import weakref
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from rarecp.data import descriptor_feature_dim
from rarecp.errors import DataError
from rarecp.experts import ExpertStack, FixedAffineMap, HypernetworkParams, RetrievalExpert
from rarecp.gate import GateParams
from rarecp.training import ModelConfig, Trainer

FORMAT_VERSION = 3
MAGIC = b"RARECP\x00\x03"
_HEADER = len(MAGIC) + 8
_F64 = np.dtype("<f8")


@dataclass(frozen=True)
class RareCPComponents:
    """Everything needed to run inference: config, trained dataset ids, parameters.

    Frozen, since loads of identical bytes share one instance.
    """

    model: ModelConfig
    dataset_ids: tuple[int, ...]
    experts: ExpertStack
    gate: GateParams


def components_from_trainer(trainer: Trainer) -> RareCPComponents:
    if trainer.experts is None or trainer.gate is None:
        raise DataError("trainer has not completed all three stages")
    return RareCPComponents(
        model=trainer.model,
        dataset_ids=tuple(sorted({s.descriptor.dataset_id for s in trainer.stores})),
        experts=trainer.experts,
        gate=trainer.gate,
    )


def _tensor_table(model: ModelConfig) -> list[dict]:
    """Name, shape and blob offset of every stored tensor, in blob order, as ``model`` implies."""
    p, M = model.context_dim, model.n_experts
    inputs = p + descriptor_feature_dim(p)
    shapes = []
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
    Each array's buffer is written in place, so a save copies no weights.
    """
    stack = components.experts
    arrays = [t for layer in stack.layers for t in layer] if stack.layers else [stack.flat]
    arrays += [a for layer in components.gate.layers for a in layer]
    table = _tensor_table(components.model)
    if [list(a.shape) for a in arrays] != [t["shape"] for t in table]:
        raise DataError("the components' tensors do not have the shapes their model implies")
    manifest = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "model": asdict(components.model),
            "dataset_ids": list(components.dataset_ids),
            "tensors": table,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    manifest += b" " * (-len(manifest) % 8)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + struct.pack("<Q", len(manifest)) + manifest)
            for a in arrays:
                fh.write(np.ascontiguousarray(a, dtype=_F64).data)
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write checkpoint {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


class _Source:
    """A checkpoint's bytes as a table key: hashed by header and manifest, equal byte for byte.

    Hashing the whole file would cost more per load (about 3.5 ms for a
    default-sized model) than comparing it with the one file of equal hash
    (a memcmp, about 0.6 ms). Models of one config and other weights hash
    alike and stay apart by that comparison.
    """

    __slots__ = ("data", "_hash")

    def __init__(self, data: bytes):
        self.data = data
        length = int.from_bytes(data[len(MAGIC) : _HEADER], "little")
        self._hash = hash(data[: _HEADER + length])

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, _Source) and self.data == other.data


# components of each loaded file's bytes, for as long as anything holds them;
# two threads loading one file at once may each build their own, which only
# loses the sharing
_LOADED: weakref.WeakValueDictionary[_Source, RareCPComponents] = weakref.WeakValueDictionary()


def load_checkpoint(path) -> RareCPComponents:
    """Components saved by ``save_checkpoint``, as read-only views of one read of the file.

    Bytes equal to those of a load whose components are still held return
    those components, without parsing or checking them again. Any other
    bytes are checked in full: a missing or unreadable file, another format
    version, and a truncated, inconsistent or non-finite file all raise
    ``DataError``, and only a load that succeeds is kept for sharing.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if data[: len(MAGIC)] != MAGIC:
        # a binary magic ends in its format version byte; format 1 was JSON
        found = re.match(rb'RARECP\x00(.)|\{"format_version":(\d+)', data, re.DOTALL)
        if found is None:
            raise DataError(f"{path} is not a rarecp checkpoint (bad magic)")
        version = ord(found[1]) if found[1] is not None else int(found[2])
        raise DataError(
            f"checkpoint {path} has format version {version}; "
            f"this version reads only version {FORMAT_VERSION}"
        )
    source = _Source(data)
    components = _LOADED.get(source)
    if components is not None:
        return components
    try:
        components = _components_from_bytes(data)
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise DataError(
            f"checkpoint {path} is truncated or malformed: {type(exc).__name__}: {exc}"
        ) from exc
    _LOADED[source] = components
    return components


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
    dataset_ids = doc["dataset_ids"]
    if not (isinstance(dataset_ids, list) and all(type(d) is int for d in dataset_ids)):
        raise TypeError(f"dataset_ids is not a list of integers: {dataset_ids!r}")
    table = _tensor_table(model)
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
    experts = [RetrievalExpert(encoder=encoder, config=model) for encoder in encoders]
    return RareCPComponents(
        model=model,
        dataset_ids=tuple(dataset_ids),
        experts=ExpertStack(experts, stacked, flat),
        gate=GateParams.from_arrays(layers("gate", 2), model.activation),
    )


def checkpoint_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
