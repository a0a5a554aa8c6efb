"""The binary checkpoint: exact round trips, views of one read, loads of identical bytes
shared, and every corruption refused."""

import builtins
import dataclasses
import gc
import json
import shutil
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from rarecp import checkpoint
from rarecp.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    RareCPComponents,
    load_checkpoint,
    save_checkpoint,
)
from rarecp.data import PrecomputedForecast, descriptor_features, normalize_context
from rarecp.errors import DataError
from rarecp.estimators import RareCP
from rarecp.experts import ExpertStack, FixedAffineMap, HypernetworkParams, RetrievalExpert
from rarecp.gate import GateParams, gate_weights
from rarecp.harness import calibration_block
from rarecp.synthetic import clean_component, synth_regime_series, two_regime_config
from rarecp.training import ModelConfig

WINDOW = 8
FIT_N, SEED_N, STREAM_N = 60, 80, 200


@pytest.fixture(scope="module")
def regime_rows():
    """Contexts and residuals of a two-regime stream with exact forecasts."""
    config = two_regime_config(block_length=40, n_blocks=10, levels=(0.0, 12.0))
    series, _ = synth_regime_series(config, seed=3)
    source = PrecomputedForecast(dict(enumerate(clean_component(config))))
    X, r, _ = calibration_block(
        series, range(WINDOW, WINDOW + FIT_N + SEED_N + STREAM_N), source, WINDOW, True
    )
    forecasts = X[:, -1]
    return X, r, forecasts


def _small_rarecp(**kw):
    params = dict(n_experts=2, top_k=6, latent_dim=4, hidden_dim=8, hidden_layers=1,
                  window=WINDOW, epochs=1, teacher_epochs=1, batch_size=32, seed=4)
    return RareCP(**{**params, **kw})


@pytest.mark.parametrize("encoder_kind", ["hypernetwork", "fixed_affine"])
@pytest.mark.parametrize("normalize", [True, False])
def test_reloaded_model_serves_identical_intervals(regime_rows, tmp_path, encoder_kind,
                                                   normalize):
    X, r, forecasts = regime_rows
    fitted = _small_rarecp(encoder_kind=encoder_kind, normalize_contexts=normalize)
    fitted.fit(X[:FIT_N], r[:FIT_N])
    path = tmp_path / "model.bin"
    fitted.save(path)
    loaded = RareCP.from_checkpoint(path)
    seed_rows = slice(FIT_N, FIT_N + SEED_N)
    for est in (fitted, loaded):
        est.set_params(capacity=SEED_N)
        est.seed_store(X[seed_rows], r[seed_rows], start_time=FIT_N)
    for i in range(FIT_N + SEED_N, FIT_N + SEED_N + STREAM_N):
        a = fitted.predict_interval(X[i], forecasts[i])
        b = loaded.predict_interval(X[i], forecasts[i])
        assert (a.lower, a.upper) == (b.lower, b.upper)
        for est in (fitted, loaded):
            est.observe(X[i], r[i])


def test_loaded_experts_are_views_of_the_stacked_weights(small_trained, tmp_path):
    path = tmp_path / "ckpt"
    save_checkpoint(small_trained["components"], path)
    loaded = load_checkpoint(path)
    stack = loaded.experts
    assert isinstance(stack, ExpertStack) and len(stack) == 2
    for m, expert in enumerate(stack):
        for (w, b), (w_all, b_all) in zip(expert.encoder.layers, stack.layers):
            assert np.shares_memory(w, w_all) and np.shares_memory(b, b_all)
            np.testing.assert_array_equal(w, w_all[m])
    assert sum(w.nbytes + b.nbytes for w, b in stack.layers) < path.stat().st_size


def test_stacking_rejects_hypernetworks_of_two_architectures():
    experts = [
        RetrievalExpert(HypernetworkParams(4, 3, h, 1, "tanh"), ModelConfig())
        for h in (8, 9)
    ]
    with pytest.raises(DataError, match="one architecture"):
        ExpertStack.of(experts)


def test_stacking_rejects_experts_of_two_encoder_kinds():
    config = ModelConfig()
    experts = [RetrievalExpert(HypernetworkParams(4, 3, 8, 1, "tanh"), config),
               RetrievalExpert(FixedAffineMap(4, 3), config)]
    with pytest.raises(DataError, match="one encoder kind"):
        ExpertStack.of(experts)


@pytest.mark.parametrize("encoder_kind", ["hypernetwork", "fixed_affine"])
def test_single_query_wrappers_equal_the_serving_path_bitwise(regime_rows, encoder_kind):
    """Each expert's ``emit`` and the gate's ``logits``, which an independent
    reference reads one query at a time, give the bits serving computes."""
    X, r, _ = regime_rows
    est = _small_rarecp(encoder_kind=encoder_kind).fit(X[:FIT_N], r[:FIT_N])
    stack, gate = est.components_.experts, est.components_.gate
    feats = descriptor_features(est.descriptor_)
    for x in X[FIT_N : FIT_N + 20]:
        qz = normalize_context(x, est.descriptor_)
        maps = stack.maps(qz, feats)
        for m, expert in enumerate(stack):
            A, b = expert.encoder.emit(qz, feats)
            folded = np.concatenate([A, b[:, None]], axis=1)
            assert folded.shape == maps[m].shape and folded.tobytes() == maps[m].tobytes()
        logits = gate.logits(qz, feats)
        e = np.exp(logits - logits.max())
        assert (e / e.sum()).tobytes() == gate_weights(gate, qz, feats).tobytes()


# ---------------------------------------------------------------------------
# loads of identical bytes share one set of read-only components
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fitted_pair(regime_rows):
    """Two small models of one config, fitted with different seeds."""
    X, r, _ = regime_rows
    return [_small_rarecp(seed=seed).fit(X[:FIT_N], r[:FIT_N]) for seed in (4, 5)]


def _weights(components):
    """Every weight array of ``components``: stacked experts, each expert's own, the gate's."""
    stack = components.experts
    arrays = [a for layer in stack.layers for a in layer]
    if stack.flat is not None:
        arrays += [stack.flat, *stack.flat]
    for expert in stack:
        encoder = expert.encoder
        arrays += [a for layer in encoder.layers for a in layer] if stack.layers else [
            encoder.A, encoder.b]
    return arrays + [a for layer in components.gate.layers for a in layer]


def _serve(est, rows, start: int, steps: int):
    """Seed ``est`` with SEED_N rows from ``start``, then serve the next ``steps`` rows."""
    X, r, forecasts = rows
    est.set_params(capacity=SEED_N)
    est.seed_store(X[start : start + SEED_N], r[start : start + SEED_N], start_time=start)
    served = []
    for i in range(start + SEED_N, start + SEED_N + steps):
        interval = est.predict_interval(X[i], forecasts[i])
        served.append((interval.lower, interval.upper))
        est.observe(X[i], r[i])
    return served


@pytest.mark.parametrize("encoder_kind", ["hypernetwork", "fixed_affine"])
def test_loaded_components_are_frozen_and_read_only(regime_rows, tmp_path, encoder_kind):
    X, r, _ = regime_rows
    path = tmp_path / "model.bin"
    _small_rarecp(encoder_kind=encoder_kind).fit(X[:FIT_N], r[:FIT_N]).save(path)
    loaded = load_checkpoint(path)
    for name in ("model", "experts", "gate", "dataset_ids"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(loaded, name, None)
    # hypernetwork: 2 stacked layers of (w, b) and 2 per expert; fixed affine:
    # the flat rows, each row, and each expert's A and b; the gate: 2 layers
    arrays = _weights(loaded)
    assert len(arrays) == {"hypernetwork": 4 + 8, "fixed_affine": 3 + 4}[encoder_kind] + 4
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_identical_bytes_load_once_at_one_path_or_a_copy(fitted_pair, tmp_path):
    path, copy = tmp_path / "model.bin", tmp_path / "copy.bin"
    fitted_pair[0].save(path)
    shutil.copyfile(path, copy)
    first = load_checkpoint(path)
    assert load_checkpoint(path) is first
    assert load_checkpoint(copy) is first
    assert all(RareCP.from_checkpoint(p).components_ is first for p in (path, copy))


def test_a_resave_with_other_weights_loads_and_serves_them(fitted_pair, regime_rows, tmp_path):
    path = tmp_path / "model.bin"
    fitted_pair[0].save(path)
    old = RareCP.from_checkpoint(path)
    fitted_pair[1].save(path)
    new = RareCP.from_checkpoint(path)
    assert new.components_ is not old.components_
    for a, b in zip(_weights(new.components_), _weights(fitted_pair[1].components_)):
        np.testing.assert_array_equal(a, b)
    served_new = _serve(new, regime_rows, FIT_N, 20)
    assert served_new == _serve(RareCP.from_components(fitted_pair[1].components_),
                                regime_rows, FIT_N, 20)
    assert served_new != _serve(old, regime_rows, FIT_N, 20)


def test_models_with_equal_manifests_are_not_shared(fitted_pair, tmp_path):
    paths = [tmp_path / f"seed-{i}.bin" for i in range(2)]
    for est, path in zip(fitted_pair, paths):
        est.save(path)
    a, b = (path.read_bytes() for path in paths)
    (length,) = struct.unpack_from("<Q", a, len(MAGIC))
    head = len(MAGIC) + 8 + length
    assert a[:head] == b[:head] and a != b
    loaded = [load_checkpoint(path) for path in paths]
    assert loaded[0] is not loaded[1]
    for est, components in zip(fitted_pair, loaded):
        for x, y in zip(_weights(components), _weights(est.components_)):
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("corruption", ["truncated", "non_finite"])
def test_corrupt_bytes_after_a_good_load_still_raise(fitted_pair, tmp_path, corruption):
    path = tmp_path / "model.bin"
    fitted_pair[0].save(path)
    good = load_checkpoint(path)
    data = path.read_bytes()
    if corruption == "truncated":
        bad, message = data[:-8], "the blob has .* bytes"
    else:
        bad, message = data[:-16] + struct.pack("<d", np.nan) + data[-8:], "not finite"
    path.write_bytes(bad)
    for _ in range(2):  # a failed load is not kept
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)
    path.write_bytes(data)
    assert load_checkpoint(path) is good


def test_shared_weights_are_freed_with_their_last_holder(fitted_pair, tmp_path):
    path = tmp_path / "model.bin"
    fitted_pair[0].save(path)
    models = [RareCP.from_checkpoint(path) for _ in range(3)]
    shared = weakref.ref(models[0].components_)
    source = checkpoint._Source(path.read_bytes())
    assert checkpoint._LOADED[source] is shared()
    del models[:2]
    gc.collect()
    assert shared() is models[0].components_ and source in checkpoint._LOADED
    del models
    gc.collect()
    assert shared() is None and source not in checkpoint._LOADED


def test_ten_streams_on_one_load_serve_as_the_unshared_components(fitted_pair, regime_rows,
                                                                 tmp_path):
    """Ten windows, each six rows later than the last, served round robin for 200 steps."""
    path = tmp_path / "model.bin"
    fitted = fitted_pair[0]
    fitted.save(path)
    shared = [RareCP.from_checkpoint(path) for _ in range(10)]
    assert all(est.components_ is shared[0].components_ for est in shared)
    own = [RareCP.from_components(fitted.components_) for _ in range(10)]
    X, r, forecasts = regime_rows
    for s, est in enumerate(shared + own):
        est.set_params(capacity=SEED_N)
        start = 6 * (s % 10)
        est.seed_store(X[start : start + SEED_N], r[start : start + SEED_N], start_time=start)
    for step in range(200):
        for s in range(10):
            i = 6 * s + SEED_N + step
            a = shared[s].predict_interval(X[i], forecasts[i])
            b = own[s].predict_interval(X[i], forecasts[i])
            assert (a.lower, a.upper) == (b.lower, b.upper)
            shared[s].observe(X[i], r[i])
            own[s].observe(X[i], r[i])


# ---------------------------------------------------------------------------
# every corruption raises DataError
# ---------------------------------------------------------------------------


@pytest.fixture
def saved(small_trained, tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(small_trained["components"], path)
    return path


def _entry(doc, name):
    return next(t for t in doc["tensors"] if t["name"] == name)


def test_truncated_blob(saved):
    saved.write_bytes(saved.read_bytes()[:-8])
    with pytest.raises(DataError, match="the blob has .* bytes where its tensor table needs"):
        load_checkpoint(saved)


def test_truncated_header(saved):
    saved.write_bytes(saved.read_bytes()[: len(MAGIC) + 4])
    with pytest.raises(DataError, match="truncated or malformed"):
        load_checkpoint(saved)


def test_table_offset_past_the_end(saved, rewrite_checkpoint):
    def edit(doc):
        _entry(doc, "gate.b1")["offset"] = 1 << 40
        return doc

    rewrite_checkpoint(saved, edit)
    with pytest.raises(DataError, match="tensor table differs"):
        load_checkpoint(saved)


@pytest.mark.parametrize("shape", [[4, 18], [20, 4]])
def test_tensor_of_wrong_size_or_shape(saved, rewrite_checkpoint, shape):
    # gate.w0 is (gate_hidden_dim, 2 p + 2) = (4, 20) for the small model
    def edit(doc):
        _entry(doc, "gate.w0")["shape"] = shape
        return doc

    rewrite_checkpoint(saved, edit)
    with pytest.raises(DataError, match="tensor table differs"):
        load_checkpoint(saved)


def test_shapes_inconsistent_with_model_config(saved, rewrite_checkpoint):
    def edit(doc):
        doc["model"]["hidden_dim"] += 1
        return doc

    rewrite_checkpoint(saved, edit)
    with pytest.raises(DataError, match="tensor table differs"):
        load_checkpoint(saved)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_weight(saved, rewrite_checkpoint, value):
    def edit(blob):
        return blob[:-16] + struct.pack("<d", value) + blob[-8:]

    rewrite_checkpoint(saved, blob_edit=edit)
    with pytest.raises(DataError, match="not finite"):
        load_checkpoint(saved)


def test_bad_magic(saved):
    saved.write_bytes(b"NOTRARE!" + saved.read_bytes()[len(MAGIC):])
    with pytest.raises(DataError, match="bad magic"):
        load_checkpoint(saved)


def test_manifest_holds_model_dataset_ids_and_tensors_only(saved):
    data = saved.read_bytes()
    (length,) = struct.unpack_from("<Q", data, len(MAGIC))
    doc = json.loads(data[len(MAGIC) + 8 : len(MAGIC) + 8 + length])
    assert sorted(doc) == ["dataset_ids", "format_version", "model", "tensors"]
    assert doc["format_version"] == FORMAT_VERSION == 3 and doc["dataset_ids"] == [0]
    names = [t["name"] for t in doc["tensors"]]
    assert all(name.startswith(("experts.", "gate.")) for name in names)


@pytest.mark.parametrize("ids", [["0"], [0.0], 0, None])
def test_dataset_ids_not_a_list_of_integers(saved, rewrite_checkpoint, ids):
    def edit(doc):
        doc["dataset_ids"] = ids
        return doc

    rewrite_checkpoint(saved, edit)
    with pytest.raises(DataError, match="truncated or malformed"):
        load_checkpoint(saved)


def test_version_two_binary_names_its_version(saved):
    saved.write_bytes(MAGIC[:-1] + b"\x02" + saved.read_bytes()[len(MAGIC):])
    with pytest.raises(DataError, match=f"format version 2;.*only version {FORMAT_VERSION}"):
        load_checkpoint(saved)


def test_version_one_json_names_its_version(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"format_version": 1, "n_experts": 2}, separators=(",", ":")))
    with pytest.raises(DataError, match=f"format version 1;.*only version {FORMAT_VERSION}"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# file-system errors
# ---------------------------------------------------------------------------


def test_loading_a_directory_raises_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read checkpoint"):
        RareCP.from_checkpoint(tmp_path)


def test_a_save_copies_no_weights(tmp_path):
    """A default-sized model's save peaks, under tracemalloc, below half its file size."""
    model = ModelConfig()
    experts = ExpertStack.of([
        RetrievalExpert(HypernetworkParams(model.context_dim, model.latent_dim, model.hidden_dim,
                                           model.hidden_layers, model.activation, seed=m),
                        model)
        for m in range(model.n_experts)
    ])
    gate = GateParams(model.context_dim, model.n_experts, model.gate_hidden_dim, model.activation)
    components = RareCPComponents(model, (0,), experts, gate)
    path = tmp_path / "model.bin"
    tracemalloc.start()
    try:
        save_checkpoint(components, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 5 << 20
    assert peak < path.stat().st_size / 2
    loaded = load_checkpoint(path)
    for (w, b), (w_saved, b_saved) in zip(loaded.experts.layers + loaded.gate.layers,
                                          experts.layers + gate.layers):
        assert w.tobytes() == w_saved.tobytes() and b.tobytes() == b_saved.tobytes()


def test_loading_a_missing_file_raises_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read checkpoint"):
        load_checkpoint(tmp_path / "missing.bin")


def test_saving_into_a_missing_directory_raises_data_error(small_trained, tmp_path):
    with pytest.raises(DataError, match="cannot write checkpoint"):
        save_checkpoint(small_trained["components"], tmp_path / "missing" / "model.json")


def test_save_failing_midway_keeps_the_previous_checkpoint(small_trained, tmp_path,
                                                           monkeypatch):
    path = tmp_path / "model.bin"
    save_checkpoint(small_trained["components"], path)
    before = path.read_bytes()

    class FailingMidway:
        """A file that takes the header and the first array, then fails."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 2:
                raise OSError("no space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(checkpoint, "open", lambda file, mode: FailingMidway(
        builtins.open(file, mode)), raising=False)
    with pytest.raises(DataError, match="cannot write checkpoint"):
        save_checkpoint(small_trained["components"], path)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]
    assert path.read_bytes() == before
    load_checkpoint(path)
    # a save that succeeds replaces the file with the same bytes
    save_checkpoint(small_trained["components"], path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]
