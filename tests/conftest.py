import pytest

from rarecp.checkpoint import components_from_trainer
from rarecp.data import (
    CalibrationStore,
    PrecomputedForecast,
    SplitSpec,
    chronological_split,
    compute_descriptor,
)
from rarecp.harness import calibration_block
from rarecp.synthetic import clean_component, synth_regime_series, two_regime_config
from rarecp.training import ModelConfig, TrainConfig, Trainer

SMALL_WINDOW = 8


@pytest.fixture(scope="session")
def small_regime_problem():
    """Tiny two-regime stream with exact forecasts, shared across suites."""
    config = two_regime_config(block_length=60, n_blocks=10, levels=(0.0, 12.0))
    series, labels = synth_regime_series(config, seed=7)
    clean = clean_component(config)
    source = PrecomputedForecast({i: float(v) for i, v in enumerate(clean)})
    split = chronological_split(len(series), SplitSpec())
    return {
        "config": config,
        "series": series,
        "labels": labels,
        "source": source,
        "split": split,
    }


@pytest.fixture(scope="session")
def small_model_config():
    return ModelConfig(
        n_experts=2,
        latent_dim=8,
        top_k=8,
        hidden_dim=16,
        hidden_layers=1,
        gate_hidden_dim=4,
        window=SMALL_WINDOW,
        include_forecast=True,
    )


@pytest.fixture(scope="session")
def small_trained(small_regime_problem, small_model_config):
    """A quickly trained small model plus its training store."""
    prob = small_regime_problem
    contexts, residuals, _ = calibration_block(
        prob["series"], prob["split"].cal, prob["source"], SMALL_WINDOW, True
    )
    store = CalibrationStore.from_arrays(contexts, residuals)
    store.condition(compute_descriptor(store.contexts()), small_model_config.normalize_contexts)
    train_cfg = TrainConfig(epochs=6, teacher_epochs=2, batch_size=64, seed=0)
    trainer = Trainer([store], small_model_config, train_cfg).run()
    return {
        "trainer": trainer,
        "components": components_from_trainer(trainer),
        "store": store,
        "train_cfg": train_cfg,
    }


@pytest.fixture
def rewrite_checkpoint():
    """Edit a saved checkpoint in place: ``rewrite(path, manifest_edit, blob_edit)``.

    ``manifest_edit`` gets the decoded manifest and returns the one to write
    (any JSON value); ``blob_edit`` gets the blob bytes and returns new ones.
    The manifest is re-padded so the blob stays 8-byte aligned.
    """
    import json
    import struct

    from rarecp.checkpoint import MAGIC

    def rewrite(path, manifest_edit=None, blob_edit=None):
        data = path.read_bytes()
        (length,) = struct.unpack_from("<Q", data, len(MAGIC))
        start = len(MAGIC) + 8
        manifest = json.loads(data[start : start + length])
        blob = data[start + length :]
        if manifest_edit is not None:
            manifest = manifest_edit(manifest)
        if blob_edit is not None:
            blob = blob_edit(blob)
        text = json.dumps(manifest).encode()
        text += b" " * (-len(text) % 8)
        path.write_bytes(MAGIC + struct.pack("<Q", len(text)) + text + blob)

    return rewrite
