"""hypersep: hyperspherical-energy regularization for small 1D separation nets."""

from .dataset import (
    DatasetManifest,
    LoadedDataset,
    Song,
    build_manifest_from_dir,
    generate_dataset,
    load_manifest,
    load_song,
    load_split,
)
from .energy import (
    EnergyResult,
    FilterBank,
    MheConfig,
    all_configs,
    layer_energy,
    mhe_penalty,
    normalized_layer_energy,
    pair_distance,
    project_to_sphere,
)
from .errors import HypersepError
from .net import (
    NetConfig,
    SepNet,
    collect_filter_banks,
    forward_batch,
    init_net,
    load_checkpoint,
    save_checkpoint,
    separate_signal,
)
from .sdr import SdrReport, aggregate, evaluate_songs, segment, segment_sdr
from .thomson import PointSet, minimize_energy, reference_energy, shape_for_points
from .training import (
    FinetuneConfig,
    TrainConfig,
    TrainResult,
    net_config_from_dict,
    resolve_lambda,
    train,
    train_config_from_dict,
)
from .wavio import read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "DatasetManifest",
    "EnergyResult",
    "FilterBank",
    "FinetuneConfig",
    "HypersepError",
    "LoadedDataset",
    "MheConfig",
    "NetConfig",
    "PointSet",
    "SdrReport",
    "SepNet",
    "Song",
    "TrainConfig",
    "TrainResult",
    "aggregate",
    "all_configs",
    "build_manifest_from_dir",
    "collect_filter_banks",
    "evaluate_songs",
    "forward_batch",
    "generate_dataset",
    "init_net",
    "layer_energy",
    "load_checkpoint",
    "load_manifest",
    "load_song",
    "load_split",
    "mhe_penalty",
    "minimize_energy",
    "net_config_from_dict",
    "normalized_layer_energy",
    "pair_distance",
    "project_to_sphere",
    "read_wav",
    "reference_energy",
    "resolve_lambda",
    "save_checkpoint",
    "segment",
    "segment_sdr",
    "separate_signal",
    "shape_for_points",
    "train",
    "train_config_from_dict",
    "write_wav",
    "__version__",
]
