"""Atomic writes: a failed write leaves the earlier file and no temp file."""

import json
import os

import numpy as np
import pytest

from hypersep.cli import cli
from hypersep.dataset import DatasetManifest, save_manifest
from hypersep.errors import IoError
from hypersep.net import NetConfig, init_net, save_checkpoint
from hypersep.sdr import SdrReport, SongStats
from hypersep.training import EpochRecord, TrainLog
from hypersep.wavio import write_wav


def tiny_net(seed):
    return init_net(NetConfig(depth=2, down_kernel=5, up_kernel=3, base_features=2, input_len=16, seed=seed))


def cli_inspect(path, version):
    """energy-inspect --out under a version-specific MHE config; the CLI exits 2 on IoError."""
    ckpt = path.parent / "net.ckpt"
    if not ckpt.exists():
        save_checkpoint(tiny_net(0), ckpt)
    mhe = path.parent / "mhe.json"
    mhe.write_text(json.dumps({"s_power": version}))
    if cli(["energy-inspect", "--ckpt", str(ckpt), "--mhe-config", str(mhe), "--out", str(path)]) == 2:
        raise IoError("energy-inspect exited 2")


WRITERS = {
    "wav": lambda path, v: write_wav(path, np.full(8, 0.1 * v), 8000),
    "checkpoint": lambda path, v: save_checkpoint(tiny_net(v), path),
    "train_log": lambda path, v: TrainLog([EpochRecord(1, 0.5, 0.25, 0.75, 0.125, 1.5, float(v))]).write_csv(path),
    "sdr_report": lambda path, v: SdrReport([SongStats("s", "vocals", 1, v, v, 0.0, 0.0)], {}, {}).write_csv(path),
    "manifest": lambda path, v: save_manifest(
        DatasetManifest(path.parent, 8000, 1.0, v, {"a": "a"}, {"train": ["a"]}), path
    ),
    "energy_inspect": cli_inspect,
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_replace_keeps_earlier_file(name, tmp_path, monkeypatch, capsys):
    write = WRITERS[name]
    target = tmp_path / "out.bin"
    write(target, 1)
    earlier = target.read_bytes()
    listing = sorted(os.listdir(tmp_path))

    def failing_replace(src, dst):
        raise OSError("simulated failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(IoError):
        write(target, 2)
    assert "simulated failure" in capsys.readouterr().err or name != "energy_inspect"
    assert target.read_bytes() == earlier
    assert sorted(os.listdir(tmp_path)) == listing


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_rewrite_replaces_content(name, tmp_path, capsys):
    write = WRITERS[name]
    target = tmp_path / "out.bin"
    write(target, 1)
    first = target.read_bytes()
    listing = sorted(os.listdir(tmp_path))
    write(target, 2)
    capsys.readouterr()
    assert target.read_bytes() != first
    assert sorted(os.listdir(tmp_path)) == listing
