"""Command-line entry point.

Subcommands: gen-data (synthesize a dataset), train (two-phase training
from a JSON config), evaluate (SDR report over a manifest's test split),
thomson (sphere-energy minimization printed as CSV), and energy-inspect
(per-layer filter diversity of a saved checkpoint).

Exit codes: 0 success, 1 usage error (bad or unknown flags), 2 runtime
error (bad files, invalid configs, diverged training, failed contracts).
"""

import argparse
import sys

from .dataset import generate_dataset, load_manifest, load_split
from .energy import MheConfig, normalized_layer_energy
from .errors import Diverged, EmptyDataset, HypersepError, InvalidConfig
from .fileio import read_json_object, write_atomic
from .net import collect_filter_banks, init_net, load_checkpoint, save_checkpoint
from .sdr import evaluate_songs
from .thomson import minimize_energy, reference_energy, shape_for_points
from .training import (
    TrainLog,
    mhe_config_from_dict,
    net_config_from_dict,
    train,
    train_config_from_dict,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _cmd_gen_data(args) -> int:
    manifest = generate_dataset(args.songs, args.seconds, args.rate, args.seed, args.out)
    sizes = {name: len(names) for name, names in manifest.splits.items()}
    print(f"wrote {len(manifest.songs)} songs to {manifest.root}")
    print(f"splits: train={sizes.get('train', 0)} validation={sizes.get('validation', 0)} test={sizes.get('test', 0)}")
    return 0


def _load_data(path, net_cfg):
    """Every split of the manifest at path; a song at another sample rate than the net's raises InvalidConfig."""
    data = load_split(load_manifest(path))
    for song in data.train + data.validation + data.test:
        if song.sample_rate != net_cfg.sample_rate:
            raise InvalidConfig(
                f"song {song.name} is sampled at {song.sample_rate} Hz but the net at {net_cfg.sample_rate} Hz"
            )
    return data


def _cmd_train(args) -> int:
    raw = read_json_object(args.config, "config")
    net_cfg = net_config_from_dict(raw.pop("net", {}))
    cfg = train_config_from_dict(raw)
    data = _load_data(args.data, net_cfg)
    log = TrainLog()
    try:
        result = train(init_net(net_cfg), data, cfg)
        log = result.log
        print(f"training: best epoch {result.best_epoch}, validation loss {result.best_val_loss:.6e}")
        save_checkpoint(result.net, args.out)
        print(f"checkpoint written to {args.out}")
    except Diverged as exc:
        log = TrainLog(exc.records)
        raise
    finally:
        # Also on failure: the log then holds the epochs that completed.
        if args.log:
            log.write_csv(args.log)
            print(f"log written to {args.log}")
    return 0


def _cmd_evaluate(args) -> int:
    net = load_checkpoint(args.ckpt)
    data = _load_data(args.data, net.config)
    songs = data.test or data.validation
    split_name = "test" if data.test else "validation"
    if not songs:
        raise EmptyDataset(f"{args.data}: no test or validation songs to evaluate")
    report = evaluate_songs(net, songs)
    report.write_csv(args.report)
    silent_total = sum(report.silent_segments.values())
    print(f"evaluated {len(songs)} {split_name} songs ({silent_total} silent reference segments)")
    for source, stats in sorted(report.song_level.items()):
        print(f"{source}: song-level mean {stats.mean:.3f} dB, median {stats.median:.3f} dB over {stats.count} songs")
    print(f"report written to {args.report}")
    return 0


def _cmd_thomson(args) -> int:
    config = MheConfig(space="full", distance=args.distance, s_power=args.s)
    best, _ = minimize_energy(
        args.n, args.d, config, steps=args.steps, restarts=args.restarts, seed=args.seed
    )
    shape = shape_for_points(args.n)
    # catalogued optima hold in 3-D; the 2-point and 3-point ones in any dim
    if shape is not None and not (args.d == 3 or args.n in (2, 3)):
        shape = None
    if shape is None:
        ref_field, gap_field = "", ""
    else:
        ref = reference_energy(shape, config)
        gap = (best - ref) / abs(ref) if ref != 0 else best - ref
        ref_field, gap_field = repr(ref), repr(gap)
    print("N,d,s,distance,best_energy,reference_energy,relative_gap")
    print(f"{args.n},{args.d},{args.s},{args.distance},{best!r},{ref_field},{gap_field}")
    return 0


def _cmd_energy_inspect(args) -> int:
    net = load_checkpoint(args.ckpt)
    config = MheConfig() if args.mhe_config is None else mhe_config_from_dict(
        read_json_object(args.mhe_config, "mhe config")
    )
    banks = collect_filter_banks(net)
    lines = ["layer_id,n_filters,dim,normalized_energy,clamped_pairs"]
    total = 0.0
    for bank in banks:
        result = normalized_layer_energy(bank, config)
        total += result.energy
        lines.append(
            f"{bank.layer_id},{bank.weights.shape[0]},{bank.weights.shape[1]},"
            f"{result.energy!r},{result.clamped_pairs}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        write_atomic(args.out, text.encode())
        print(f"wrote {len(banks)} layer rows to {args.out}")
    else:
        print(text, end="")
    print(f"sum of normalized energies ({config.label()}): {total!r}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hypersep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    gen = sub.add_parser("gen-data", help="synthesize a seeded two-source dataset")
    gen.add_argument("--songs", type=int, required=True, help="number of songs to generate")
    gen.add_argument("--seconds", type=float, required=True, help="duration of each song")
    gen.add_argument("--rate", type=int, default=8000, help="sample rate in Hz (default 8000)")
    gen.add_argument("--seed", type=int, default=0, help="generation seed (default 0)")
    gen.add_argument("--out", required=True, help="output dataset directory")
    gen.set_defaults(func=_cmd_gen_data)

    tr = sub.add_parser("train", help="train a separator from a JSON config")
    tr.add_argument("--config", required=True, help="JSON file of training fields plus a 'net' section")
    tr.add_argument("--data", required=True, help="dataset manifest (file or directory)")
    tr.add_argument("--out", required=True, help="checkpoint output path")
    tr.add_argument("--log", default=None, help="CSV epoch log output path")
    tr.set_defaults(func=_cmd_train)

    ev = sub.add_parser("evaluate", help="write an SDR report for a checkpoint")
    ev.add_argument("--ckpt", required=True, help="checkpoint path")
    ev.add_argument("--data", required=True, help="dataset manifest (file or directory)")
    ev.add_argument("--report", required=True, help="CSV report output path")
    ev.set_defaults(func=_cmd_evaluate)

    th = sub.add_parser("thomson", help="minimize point energy on a sphere, print CSV")
    th.add_argument("--n", type=int, required=True, help="number of points")
    th.add_argument("--d", type=int, default=3, help="embedding dimension (default 3)")
    th.add_argument("--s", type=int, default=1, choices=(0, 1, 2), help="kernel power (default 1)")
    th.add_argument("--distance", default="euclidean", choices=("euclidean", "angular"),
                    help="pairwise distance (default euclidean)")
    th.add_argument("--steps", type=int, default=2000, help="at most this many descent steps per restart (default 2000)")
    th.add_argument("--restarts", type=int, default=8, help="independent starts (default 8)")
    th.add_argument("--seed", type=int, default=0, help="restart seed (default 0)")
    th.set_defaults(func=_cmd_thomson)

    ins = sub.add_parser("energy-inspect", help="per-layer filter diversity of a checkpoint")
    ins.add_argument("--ckpt", required=True, help="checkpoint path")
    ins.add_argument("--mhe-config", default=None, help="JSON file with space/distance/s_power overrides")
    ins.add_argument("--out", default=None, help="CSV output path (default: print to stdout)")
    ins.set_defaults(func=_cmd_energy_inspect)

    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"hypersep: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse exits directly for -h/--help
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (HypersepError, OSError) as exc:
        print(f"hypersep: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
