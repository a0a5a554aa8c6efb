import json

import numpy as np
import pytest

from rarecp.checkpoint import MAGIC
from rarecp.cli import main
from rarecp.config import SEED_ENV_VAR, RunConfig, load_config, parse_config_text
from rarecp.data import SplitSpec, chronological_split, load_forecast_csv, load_series_csv
from rarecp.errors import DataError
from rarecp.estimators import RareCP
from rarecp.harness import calibration_block, emit_report
from rarecp.training import write_training_log


@pytest.fixture
def fast_config(tmp_path):
    """Config small enough for CLI round trips in seconds."""
    path = tmp_path / "run.cfg"
    path.write_text(
        "\n".join(
            [
                "# tiny run",
                "window = 6",
                "n_experts = 2",
                "latent_dim = 4",
                "top_k = 6",
                "hidden_dim = 8",
                "hidden_layers = 1",
                "gate_hidden_dim = 2",
                "epochs = 3",
                "teacher_epochs = 1",
                "batch_size = 64",
                "synth_block_length = 60",
                "synth_blocks = 8",
                "forecast = file",
                "seed = 5",
            ]
        )
        + "\n"
    )
    return path


def run_cli(*args):
    return main(list(args))


# the ``RareCP`` parameters of ``fast_config``
FAST_PARAMS = dict(window=6, n_experts=2, latent_dim=4, top_k=6, hidden_dim=8, hidden_layers=1,
                   gate_hidden_dim=2, epochs=3, teacher_epochs=1, batch_size=64, seed=5)


def calibration_rows(data):
    """Contexts and residuals of the calibration split of synthesised ``data``."""
    series = load_series_csv(data / "series.csv", "y")
    split = chronological_split(len(series), SplitSpec())
    X, r, _ = calibration_block(
        series, split.cal, load_forecast_csv(data / "forecasts.csv"), 6, True
    )
    return X, r


@pytest.fixture
def trained(tmp_path, fast_config):
    """A config pointing at synthesised data, and the checkpoint ``rarecp train`` wrote."""
    data = tmp_path / "data"
    run_cli("synth", "--config", str(fast_config), "--out", str(data))
    cfg = tmp_path / "full.cfg"
    cfg.write_text(
        fast_config.read_text()
        + f"series_csv = {data / 'series.csv'}\n"
        + f"forecast_csv = {data / 'forecasts.csv'}\n"
    )
    ckpt = tmp_path / "model.ckpt"
    assert run_cli("train", "--config", str(cfg), "--out", str(ckpt)) == 0
    return data, cfg, ckpt


class TestConfig:
    def test_parse_key_values(self):
        values = parse_config_text("a = 1\n# comment\nb= x  # trailing\n\n")
        assert values == {"a": "1", "b": "x"}

    def test_bad_line(self):
        with pytest.raises(DataError):
            parse_config_text("not a pair\n")

    def test_load_with_overrides(self, fast_config):
        cfg = load_config(fast_config, overrides={"alpha": 0.3})
        assert cfg.window == 6
        assert cfg.alpha == 0.3
        assert cfg.seed == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense_key = 1\n")
        with pytest.raises(DataError):
            load_config(path)

    def test_env_seed_override(self, fast_config, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        assert load_config(fast_config).seed == 99

    def test_env_seed_must_be_int(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        with pytest.raises(DataError):
            load_config(None)

    def test_bool_coercion(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("include_forecast = false\n")
        assert load_config(path).include_forecast is False

    def test_defaults_mirror_spec(self):
        cfg = RunConfig()
        assert cfg.window == 64
        assert cfg.alpha == 0.2
        assert cfg.aci_gamma == 0.01
        assert cfg.n_experts == 3
        assert cfg.top_k == 32
        assert cfg.beta == 12.0
        assert cfg.epochs == 100
        assert cfg.lambda_anchor == 5.0
        assert cfg.lambda_entropy == 0.02
        assert cfg.nexcp_lambda == 0.99


class TestCliFlows:
    def test_synth_writes_files(self, tmp_path, fast_config):
        out = tmp_path / "data"
        assert run_cli("synth", "--config", str(fast_config), "--out", str(out)) == 0
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "y,regime"
        assert len(series) == 481  # header + 8 * 60
        forecasts = (out / "forecasts.csv").read_text().splitlines()
        assert forecasts[0] == "time_index,forecast"

    def test_synth_seed_determinism(self, tmp_path, fast_config, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "3")
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        run_cli("synth", "--config", str(fast_config), "--out", str(out1))
        run_cli("synth", "--config", str(fast_config), "--out", str(out2))
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()

    def test_train_and_eval_flow(self, tmp_path, fast_config):
        data = tmp_path / "data"
        run_cli("synth", "--config", str(fast_config), "--out", str(data))
        # point the config at the generated files
        cfg = tmp_path / "full.cfg"
        cfg.write_text(
            fast_config.read_text()
            + f"series_csv = {data / 'series.csv'}\n"
            + f"forecast_csv = {data / 'forecasts.csv'}\n"
        )
        ckpt = tmp_path / "model.json"
        assert run_cli("train", "--config", str(cfg), "--out", str(ckpt)) == 0
        assert ckpt.exists()
        assert ckpt.with_suffix(".log.csv").exists()

        report = tmp_path / "report"
        code = run_cli(
            "eval", "--config", str(cfg),
            "--method", "uniform", "--method", "rarecp_checkpoint",
            "--checkpoint", str(ckpt), "--out", str(report),
        )
        assert code == 0
        summary = (report / "summary.csv").read_text().splitlines()
        assert len(summary) == 3
        assert (report / "records.csv").exists()
        assert json.loads((report / "manifest.json").read_text())["seed"] == 5

    def test_same_seed_evals_write_identical_manifests_with_the_blas_threads(self, tmp_path,
                                                                           trained):
        _, cfg, ckpt = trained
        reports = [tmp_path / "report-a", tmp_path / "report-b"]
        for report in reports:
            assert run_cli("eval", "--config", str(cfg), "--method", "rarecp_checkpoint",
                           "--checkpoint", str(ckpt), "--out", str(report)) == 0
        a, b = ((report / "manifest.json").read_bytes() for report in reports)
        assert a == b
        threads = json.loads(a)["blas_threads"]
        assert threads is None or (type(threads) is int and threads >= 1)

    def test_strict_split_trains_on_first_half(self, tmp_path, fast_config):
        data = tmp_path / "data"
        run_cli("synth", "--config", str(fast_config), "--out", str(data))
        cfg = tmp_path / "strict.cfg"
        cfg.write_text(
            fast_config.read_text()
            + f"series_csv = {data / 'series.csv'}\n"
            + f"forecast_csv = {data / 'forecasts.csv'}\n"
            + "strict_split = true\n"
        )
        ckpt = tmp_path / "strict.json"
        assert run_cli("train", "--config", str(cfg), "--out", str(ckpt)) == 0
        # 480 points, cal split = 72, learning half = 36
        X, r = calibration_rows(data)
        assert X.shape[0] == 72
        RareCP(**FAST_PARAMS).fit(X[:36], r[:36]).save(tmp_path / "first_half.ckpt")
        assert ckpt.read_bytes() == (tmp_path / "first_half.ckpt").read_bytes()
        report = tmp_path / "strict_report"
        assert (
            run_cli(
                "eval", "--config", str(cfg), "--method", "rarecp_checkpoint",
                "--checkpoint", str(ckpt), "--out", str(report),
            )
            == 0
        )

    def test_train_writes_the_checkpoint_and_log_of_a_library_fit(self, tmp_path, trained):
        data, _, ckpt = trained
        X, r = calibration_rows(data)
        est = RareCP(**FAST_PARAMS).fit(X, r)
        est.save(tmp_path / "library.ckpt")
        write_training_log(est.train_log_, tmp_path / "library.log.csv")
        assert ckpt.read_bytes() == (tmp_path / "library.ckpt").read_bytes()
        assert (ckpt.with_suffix(".log.csv").read_bytes()
                == (tmp_path / "library.log.csv").read_bytes())

    def test_probe_topk_writes_csv(self, tmp_path):
        out = tmp_path / "probe.csv"
        code = run_cli(
            "probe-topk", "--n", "400", "--k", "4", "--k", "64",
            "--queries", "10", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,mean_sup_cdf_distance"
        assert len(lines) == 3


    @pytest.mark.parametrize("bad", [("--n", "0"), ("--k", "0"), ("--queries", "0")], ids=repr)
    def test_probe_topk_refuses_zero_counts(self, bad):
        """These ended in a ZeroDivisionError traceback, or printed nan and exited 0."""
        assert run_cli("probe-topk", "--n", "400", "--k", "4", "--queries", "10", *bad) == 2


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert run_cli("eval") == 1  # missing required options
        assert run_cli("no-such-command") == 1

    def test_data_error_is_two(self, tmp_path, fast_config):
        cfg = tmp_path / "missing.cfg"
        cfg.write_text(
            fast_config.read_text()
            + "series_csv = /nonexistent/file.csv\nforecast = naive\n"
        )
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "c.json")) == 2

    def test_eval_of_a_format_2_checkpoint_is_two(self, tmp_path, trained, capsys):
        _, cfg, ckpt = trained
        ckpt.write_bytes(MAGIC[:-1] + b"\x02" + ckpt.read_bytes()[len(MAGIC):])
        code = run_cli("eval", "--config", str(cfg), "--method", "rarecp_checkpoint",
                       "--checkpoint", str(ckpt), "--out", str(tmp_path / "report"))
        assert code == 2
        assert "format version 2" in capsys.readouterr().err

    def test_eval_of_an_unknown_dataset_id_is_two(self, tmp_path, trained, capsys):
        _, cfg, ckpt = trained
        cfg.write_text(cfg.read_text() + "dataset_id = 5\n")
        code = run_cli("eval", "--config", str(cfg), "--method", "rarecp_checkpoint",
                       "--checkpoint", str(ckpt), "--out", str(tmp_path / "report"))
        assert code == 2
        assert "not trained on dataset 5" in capsys.readouterr().err

    def test_missing_config_file_is_two(self, tmp_path):
        assert (
            run_cli("synth", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path / "o")) == 2
        )

    @pytest.mark.parametrize("command", ["synth", "probe-topk"])
    def test_an_output_path_that_cannot_be_written_is_two(self, tmp_path, capsys, command):
        """synth raised NotADirectoryError and probe-topk FileNotFoundError out of main."""
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        if command == "synth":
            args = ("synth", "--out", str(blocker / "out"))
        else:
            args = ("probe-topk", "--n", "50", "--k", "4", "--queries", "2",
                    "--out", str(tmp_path / "missing" / "probe.csv"))
        assert run_cli(*args) == 2
        assert "data error: cannot" in capsys.readouterr().err


class TestFileErrors:
    """Files that cannot be read or written raise ``DataError``, as checkpoints do."""

    @pytest.fixture
    def binary(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\x80\x81\xff\x00\n")
        return path

    @pytest.mark.parametrize("load", [lambda p: load_series_csv(p, "y"), load_forecast_csv],
                             ids=["series", "forecast"])
    def test_a_directory_or_a_binary_file_is_a_data_error(self, tmp_path, binary, load):
        for path in (tmp_path, binary):
            with pytest.raises(DataError, match="cannot read"):
                load(path)

    def test_a_training_log_in_a_missing_directory_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot write training log"):
            write_training_log([], tmp_path / "missing" / "log.csv")

    def test_a_report_that_cannot_be_written_is_a_data_error(self, tmp_path):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        for out in (blocker, blocker / "report"):
            with pytest.raises(DataError, match="cannot write the report"):
                emit_report([], {}, out)

    def test_a_manifest_value_json_cannot_hold_is_refused_before_any_file(self, tmp_path):
        with pytest.raises(DataError, match="JSON"):
            emit_report([], {}, tmp_path / "report", manifest={"seed": np.int64(3)})
        assert not (tmp_path / "report").exists()
