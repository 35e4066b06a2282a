"""CLI contract tests: exit codes, usage messages, and artifact plumbing."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from hypersep import cli as cli_module
from hypersep.cli import build_parser, cli
from hypersep.dataset import load_manifest, load_split
from hypersep.errors import CorruptHeader, HypersepError
from hypersep.net import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny gen-data + train run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "ds"
    assert cli(["gen-data", "--songs", "3", "--seconds", "2", "--rate", "4000",
                "--seed", "11", "--out", str(data)]) == 0
    config = {
        "net": {"depth": 2, "down_kernel": 5, "up_kernel": 3, "base_features": 3,
                "input_len": 256, "sample_rate": 4000, "seed": 2},
        "batch_size": 2,
        "learning_rate": 1e-3,
        "iterations_per_epoch": 3,
        "patience_epochs": 1,
        "max_epochs": 2,
        "lambda_mode": "off",
        "finetune": {"enabled": False},
        "seed": 4,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    ckpt = root / "net.ckpt"
    log = root / "log.csv"
    assert cli(["train", "--config", str(cfg_path), "--data", str(data),
                "--out", str(ckpt), "--log", str(log)]) == 0
    return {"root": root, "data": data, "config": cfg_path, "ckpt": ckpt, "log": log}


class TestUsageErrors:
    def test_no_arguments(self):
        assert cli([]) == 1

    def test_unknown_command(self, capsys):
        assert cli(["frobnicate"]) == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_unknown_flag_is_named(self, capsys):
        assert cli(["thomson", "--n", "2", "--bogus"]) == 1
        err = capsys.readouterr().err
        assert "--bogus" in err
        assert "usage: hypersep thomson" in err

    def test_bad_value_names_flag(self, capsys):
        assert cli(["thomson", "--n", "two"]) == 1
        assert "--n" in capsys.readouterr().err

    def test_missing_required_flag_is_named(self, capsys):
        assert cli(["gen-data", "--songs", "2"]) == 1
        err = capsys.readouterr().err
        assert "--seconds" in err or "--out" in err

    def test_help_exits_zero(self, capsys):
        assert cli(["--help"]) == 0
        capsys.readouterr()


class TestRuntimeErrors:
    def test_missing_checkpoint(self, tmp_path, capsys):
        rc = cli(["evaluate", "--ckpt", str(tmp_path / "absent.ckpt"),
                  "--data", str(tmp_path), "--report", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = cli(["train", "--config", str(bad), "--data", str(tmp_path),
                  "--out", str(tmp_path / "c.ckpt")])
        assert rc == 2
        capsys.readouterr()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learnig_rate": 1e-3}))
        rc = cli(["train", "--config", str(cfg), "--data", str(tmp_path),
                  "--out", str(tmp_path / "c.ckpt")])
        assert rc == 2
        assert "learnig_rate" in capsys.readouterr().err

    def test_low_sample_rate_gen(self, tmp_path, capsys):
        rc = cli(["gen-data", "--songs", "1", "--seconds", "1", "--rate", "100",
                  "--seed", "0", "--out", str(tmp_path / "ds")])
        assert rc == 2
        capsys.readouterr()

    def test_gen_data_rejects_a_rate_too_large_for_the_wav_header(self, tmp_path, capsys):
        """2 * rate must fit the header's uint32 byte rate: the rate is refused before any directory is made."""
        rc = cli(["gen-data", "--songs", "1", "--seconds", "1e-9", "--rate", str(2**31), "--out", str(tmp_path / "d")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sample_rate" in err and "Traceback" not in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("seconds", ["0.001", "0.000125"])
    def test_gen_data_of_a_few_samples(self, tmp_path, capsys, seconds):
        assert cli(["gen-data", "--songs", "1", "--seconds", seconds, "--rate", "8000", "--out",
                    str(tmp_path / "ds")]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert len(load_split(load_manifest(tmp_path / "ds")).train) == 1

    @pytest.mark.parametrize("seconds", ["nan", "inf", "1e-9"])
    def test_gen_data_rejects_durations_without_a_finite_sample_count(self, tmp_path, capsys, seconds):
        rc = cli(["gen-data", "--songs", "1", "--seconds", seconds, "--out", str(tmp_path / "ds")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "duration_s" in err and "Traceback" not in err

    @pytest.mark.parametrize("splits", [[], "x", 5, None], ids=["array", "string", "number", "null"])
    def test_train_rejects_a_manifest_whose_splits_are_no_object(self, pipeline, tmp_path, capsys, splits):
        data = tmp_path / "ds"
        data.mkdir()
        manifest = json.loads((pipeline["data"] / "manifest.json").read_text())
        (data / "manifest.json").write_text(json.dumps({**manifest, "splits": splits}))
        rc = cli(["train", "--config", str(pipeline["config"]), "--data", str(data),
                  "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "splits" in err
        assert not (tmp_path / "x.ckpt").exists()


class TestThomson:
    def test_antipodal_csv(self, capsys):
        rc = cli(["thomson", "--n", "2", "--d", "3", "--s", "1", "--distance", "euclidean",
                  "--steps", "300", "--restarts", "2"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "N,d,s,distance,best_energy,reference_energy,relative_gap"
        fields = out[1].split(",")
        assert fields[:4] == ["2", "3", "1", "euclidean"]
        assert abs(float(fields[4]) - 1.0) < 1e-6
        assert float(fields[5]) == 1.0
        assert abs(float(fields[6])) < 1e-6

    def test_uncatalogued_count_leaves_reference_empty(self, capsys):
        rc = cli(["thomson", "--n", "5", "--steps", "50", "--restarts", "1"])
        assert rc == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        fields = row.split(",")
        assert fields[5] == "" and fields[6] == ""
        assert np.isfinite(float(fields[4]))

    def test_negative_seed_is_one_error_line(self, capsys):
        rc = cli(["thomson", "--n", "4", "--d", "3", "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("hypersep: error:") and "seed" in err[0]

    def test_reference_only_applies_in_three_dimensions(self, capsys):
        rc = cli(["thomson", "--n", "4", "--d", "5", "--steps", "50", "--restarts", "1"])
        assert rc == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert row.split(",")[5] == ""


class TestPipeline:
    def test_gen_data_writes_manifest_and_stems(self, pipeline, capsys):
        manifest = load_manifest(pipeline["data"])
        assert len(manifest.songs) == 3
        for rel in manifest.songs.values():
            assert (pipeline["data"] / rel / "vocals.wav").exists()
            assert (pipeline["data"] / rel / "mixture.wav").exists()
        capsys.readouterr()

    def test_lambda_off_log_penalty_all_zero(self, pipeline):
        rows = pipeline["log"].read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header == ["epoch", "mse", "mhe_penalty", "val_loss", "lambda", "seconds", "val_mse"]
        penalty_col = header.index("mhe_penalty")
        lambda_col = header.index("lambda")
        assert len(rows) >= 2
        for row in rows[1:]:
            fields = row.split(",")
            assert float(fields[penalty_col]) == 0.0
            assert float(fields[lambda_col]) == 0.0

    def test_evaluate_writes_report(self, pipeline, capsys):
        report = pipeline["root"] / "report.csv"
        rc = cli(["evaluate", "--ckpt", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
                  "--report", str(report)])
        assert rc == 0
        capsys.readouterr()
        rows = report.read_text().strip().splitlines()
        assert rows[0] == "song,source,segments,mean,median,sd,mad"
        sources = {row.split(",")[1] for row in rows[1:]}
        assert sources == {"vocals", "accompaniment"}

    def test_energy_inspect_stdout(self, pipeline, capsys):
        rc = cli(["energy-inspect", "--ckpt", str(pipeline["ckpt"])])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "layer_id,n_filters,dim,normalized_energy,clamped_pairs"
        body = [row for row in out[1:] if row[0].isdigit()]
        assert len(body) == 4  # two down banks + two up banks at depth 2
        for row in body:
            fields = row.split(",")
            assert np.isfinite(float(fields[3]))
            assert int(fields[4]) >= 0

    def test_energy_inspect_csv_and_config(self, pipeline, capsys):
        mhe_path = pipeline["root"] / "mhe.json"
        mhe_path.write_text(json.dumps({"space": "half", "distance": "angular", "s_power": 2}))
        out_csv = pipeline["root"] / "inspect.csv"
        rc = cli(["energy-inspect", "--ckpt", str(pipeline["ckpt"]),
                  "--mhe-config", str(mhe_path), "--out", str(out_csv)])
        assert rc == 0
        assert "half/angular/s2" in capsys.readouterr().out
        rows = out_csv.read_text().strip().splitlines()
        assert len(rows) == 5

    def test_train_rejects_unknown_net_key(self, pipeline, tmp_path, capsys):
        cfg = json.loads(pipeline["config"].read_text())
        cfg["net"]["depht"] = 3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = cli(["train", "--config", str(bad), "--data", str(pipeline["data"]),
                  "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2
        assert "depht" in capsys.readouterr().err

    def _train(self, pipeline, tmp_path, **overrides):
        cfg = json.loads(pipeline["config"].read_text())
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return cli(["train", "--config", str(path), "--data", str(pipeline["data"]),
                    "--out", str(tmp_path / "x.ckpt"), "--log", str(tmp_path / "log.csv")])

    def test_finetune_log_continues_epoch_numbering(self, pipeline, tmp_path, capsys):
        # patience above max_epochs: each phase runs exactly two epochs
        rc = self._train(pipeline, tmp_path, patience_epochs=5, max_epochs=2,
                         finetune={"enabled": True, "max_epochs": 2})
        assert rc == 0
        assert capsys.readouterr().out.count("best epoch") == 1
        rows = (tmp_path / "log.csv").read_text().strip().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [1, 2, 3, 4]

    def test_divergence_exits_2_without_checkpoint(self, pipeline, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            rc = self._train(pipeline, tmp_path, learning_rate=1e200)
        assert rc == 2
        assert "training diverged at epoch 1" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_divergence_in_finetune_keeps_the_completed_epochs_log(self, pipeline, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            rc = self._train(pipeline, tmp_path, patience_epochs=5, max_epochs=2,
                             finetune={"enabled": True, "learning_rate": 1e200, "max_epochs": 2})
        assert rc == 2
        assert "training diverged at epoch 3, iteration 2" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()
        rows = (tmp_path / "log.csv").read_text().strip().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [1, 2]

    def test_train_rejects_songs_at_another_sample_rate(self, pipeline, tmp_path, capsys):
        cfg = json.loads(pipeline["config"].read_text())
        rc = self._train(pipeline, tmp_path, net={**cfg["net"], "sample_rate": 8000})
        assert rc == 2
        err = capsys.readouterr().err
        assert "4000 Hz" in err and "8000 Hz" in err
        assert not (tmp_path / "x.ckpt").exists()

    def test_evaluate_rejects_songs_at_another_sample_rate(self, pipeline, tmp_path, capsys):
        net = load_checkpoint(pipeline["ckpt"])
        ckpt = tmp_path / "net8k.ckpt"
        save_checkpoint(replace(net, config=replace(net.config, sample_rate=8000)), ckpt)
        rc = cli(["evaluate", "--ckpt", str(ckpt), "--data", str(pipeline["data"]),
                  "--report", str(tmp_path / "r.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "4000 Hz" in err and "8000 Hz" in err
        assert not (tmp_path / "r.csv").exists()


def _merged(base: dict, overrides: dict) -> dict:
    """base with overrides applied; a dict override of a dict section updates that section."""
    out = dict(base)
    for key, value in overrides.items():
        both = isinstance(value, dict) and isinstance(out.get(key), dict)
        out[key] = {**out[key], **value} if both else value
    return out


class TestMalformedInput:
    """Wrong-typed or out-of-range JSON exits 2 naming the field, before any training."""

    @pytest.fixture
    def train_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli_module, "train", lambda *args: calls.append(args))
        return calls

    @staticmethod
    def _check(argv, field, capsys):
        args = build_parser().parse_args(argv)
        with pytest.raises(HypersepError, match=field):
            args.func(args)
        assert cli(argv) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"batch_size": "16"}, "batch_size"),
            ({"batch_size": 16.0}, "batch_size"),
            ({"augment_range": [0.7]}, "augment_range"),
            ({"augment_range": 5}, "augment_range"),
            ({"lambda_mode": "custom", "lambda_value": "0.1"}, "lambda_value"),
            ({"net": 5}, "net"),
            ({"net": {"depth": "4"}}, "depth"),
            ({"mhe": ["half"]}, "mhe"),
            ({"finetune": {"enabled": "no"}}, "enabled"),
            ({"net": {"bottleneck_own_layer": "false"}}, "bottleneck_own_layer"),
            ({"finetune": {"enabled": True, "max_epochs": -1}}, "max_epochs"),
        ],
    )
    def test_train_config(self, pipeline, tmp_path, capsys, train_calls, overrides, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_merged(json.loads(pipeline["config"].read_text()), overrides)))
        argv = ["train", "--config", str(path), "--data", str(pipeline["data"]),
                "--out", str(tmp_path / "x.ckpt")]
        self._check(argv, field, capsys)
        assert train_calls == []
        assert not (tmp_path / "x.ckpt").exists()

    def test_energy_inspect_mhe_config(self, pipeline, tmp_path, capsys):
        path = tmp_path / "mhe.json"
        path.write_text(json.dumps({"clamp_epsilon": "x"}))
        self._check(["energy-inspect", "--ckpt", str(pipeline["ckpt"]), "--mhe-config", str(path)],
                    "clamp_epsilon", capsys)

    @staticmethod
    def _edited_checkpoint(pipeline, tmp_path, key, value):
        blob = pipeline["ckpt"].read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 5)
        header = json.loads(blob[9 : 9 + hlen])
        if key == "layers":
            header["layers"] = value
        else:
            header["config"][key] = value
        new = json.dumps(header).encode()
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(blob[:5] + struct.pack("<I", len(new)) + new + blob[9 + hlen :])
        return ckpt

    def test_checkpoint_header_config(self, pipeline, tmp_path, capsys):
        ckpt = self._edited_checkpoint(pipeline, tmp_path, "depth", "1")
        self._check(["energy-inspect", "--ckpt", str(ckpt)], "depth", capsys)
        self._check(["evaluate", "--ckpt", str(ckpt), "--data", str(pipeline["data"]),
                     "--report", str(tmp_path / "r.csv")], "depth", capsys)

    @pytest.mark.parametrize("layer, part, value", [(0, "weights", np.nan), (-1, "bias", np.inf)],
                             ids=["nan_weights", "inf_output_bias"])
    def test_nonfinite_checkpoint(self, pipeline, tmp_path, capsys, layer, part, value):
        """A NaN weight would score as nan SDRs, an inf output bias as finite, meaningless ones: evaluate refuses
        either, naming the layer and the part, and writes no report."""
        net = load_checkpoint(pipeline["ckpt"])
        getattr(net.layers[layer], part).reshape(-1)[0] = value
        ckpt, report = tmp_path / "bad.ckpt", tmp_path / "r.csv"
        save_checkpoint(net, ckpt)
        self._check(["evaluate", "--ckpt", str(ckpt), "--data", str(pipeline["data"]), "--report", str(report)],
                    f"layer {layer % len(net.layers)} {part}", capsys)
        assert not report.exists()

    def test_checkpoint_with_a_norm_past_float64(self, pipeline, tmp_path, capsys):
        """A finite filter row whose norm exceeds float64's range is refused naming the row, not scored as a zero
        unit row."""
        net = load_checkpoint(pipeline["ckpt"])
        net.layers[0].weights[1] = 1.5e308
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(net, ckpt)
        self._check(["energy-inspect", "--ckpt", str(ckpt)], "filter row 1's norm", capsys)

    @pytest.mark.parametrize("layers", [5, None, [1, 2, 3, 4]], ids=["int", "null", "ints"])
    def test_checkpoint_header_layers(self, pipeline, tmp_path, capsys, layers):
        ckpt = self._edited_checkpoint(pipeline, tmp_path, "layers", layers)
        with pytest.raises(CorruptHeader, match="layers"):
            load_checkpoint(ckpt)
        self._check(["evaluate", "--ckpt", str(ckpt), "--data", str(pipeline["data"]),
                     "--report", str(tmp_path / "r.csv")], "layers", capsys)
