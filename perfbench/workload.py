"""One benchmark workload run, in a process of its own.

``run.py`` starts this file as a fresh process per workload run:

    python3 perfbench/workload.py --workload small-train --seed 3 --seconds 30 \
        --trace 0 --out perfbench/out

It prints one JSON object as its last line of standard output: the
operations attempted and failed, a summary of every timing, the end-to-end
values, the program's results (losses, penalties, Thomson energies, as
exact hex floats) and, when traced, the per-layer values.

Both workloads run the same four phases, sized to the net they train:
training, evaluation of the trained net, the MHE penalty over the initial
net's filter banks under three configs, and the Thomson solve. The phases
take turns, round by round (see ``Workload``).
"""

import time

_STARTED = time.perf_counter()  # this process's own import time is reported too

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hypersep import dataset, energy, net, sdr, thomson, training  # noqa: E402

from spans import Tracer, conv_flops, percentile, self_times, summarize  # noqa: E402

RATE = 8000

# Penalty configs the tests use most; metric names use "_" for "/". Both
# workloads time the penalty over the 8 banks of the default NetConfig():
# calls on the small net's banks take a few ms and swing by a third from
# process to process with OpenBLAS thread wake-ups, too much to hold a bound.
PENALTY_CONFIGS = {
    "full_euclidean_s0": energy.MheConfig("full", "euclidean", 0),
    "half_euclidean_s0": energy.MheConfig("half", "euclidean", 0),
    "half_angular_s0": energy.MheConfig("half", "angular", 0),
}
PENALTY_REPS = {"full_euclidean_s0": 1, "half_euclidean_s0": 1, "half_angular_s0": 5}  # per round
TRAIN_MHE = PENALTY_CONFIGS["half_euclidean_s0"]

# The Thomson solve: N=12 points on S^2 under s=1, with the CLI's default
# 2000 steps x 8 restarts; its optimum is the icosahedron. How many energy
# evaluations a solve makes depends on its starts (about 19,400 or 22,000),
# so each solve of a run gets its own seed and thomson_s is the mean over
# the run's solves: every run then times a similar mix of starts.
THOMSON_CONFIG = energy.MheConfig("full", "euclidean", 1)
THOMSON_POINTS = 12
THOMSON_TOLERANCE = 1e-3

# Acceptance-2 tolerance for the vectorized energy against a double sum.
ORACLE_RTOL = 1e-10
ORACLE_ATOL = 1e-12


@dataclasses.dataclass(frozen=True)
class Workload:
    """Sizes of one workload.

    A run is a number of rounds; each round runs one unit of every phase
    (a training unit, the evaluations, the penalty calls, the Thomson
    solves), so every metric samples the whole run rather than one stretch
    of it and a slow spell of a shared machine hits all of them alike.
    Counts are fixed for a given --seconds, so work, and every count the
    trace reports, repeats exactly.
    """

    name: str
    net_config: dict
    songs: int
    song_s: float
    setup_reps: int
    round_s: float  # nominal round length on a 2-core Xeon at the seed commit
    min_rounds: int
    trace_rounds: int  # rounds of each run of an untraced/traced pair
    eval_reps: int  # evaluate_songs calls per round
    thomson_reps: int  # solves per round

    def rounds(self, seconds: int, traced_pair: bool) -> int:
        if traced_pair:
            return self.trace_rounds
        return max(self.min_rounds, round(seconds / self.round_s))


SMALL = Workload(
    "small-train",
    dict(depth=3, down_kernel=15, up_kernel=5, base_features=8, input_len=1024),
    songs=4, song_s=6.0, setup_reps=9, round_s=10.0, min_rounds=4, trace_rounds=2,
    eval_reps=3, thomson_reps=2,
)
PAPER = Workload(
    "paper-train-eval",
    {},  # NetConfig() defaults: depth 4, base 24, T=16384
    songs=4, song_s=30.0, setup_reps=3, round_s=30.0, min_rounds=2, trace_rounds=1,
    eval_reps=1, thomson_reps=3,
)
WORKLOADS = {w.name: w for w in (SMALL, PAPER)}

# small-train: each round's train() call runs one epoch of SMALL_ITERS
# iterations, then validates, from the same initial weights.
SMALL_ITERS = 40
PAPER_BATCH = 16


class Aborted(Exception):
    """An operation raised; the rest of the workload cannot run."""


class Ops:
    """Operations attempted and failed. An operation fails when it raises or
    when a check on its output fails; checks are never loosened to pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def timed(self, name, fn, check=None):
        """Run fn() as one operation; returns (result, wall seconds)."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising operation is a failed one
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise Aborted(name) from exc
        seconds = time.perf_counter() - started
        problem = check(result) if check else None
        if problem:
            self.failed += 1
            self.errors.append(f"{name}: {problem}")
        return result, seconds

    def check(self, name, problem):
        """Count a standalone output check."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.errors.append(f"{name}: {problem}")


def blas_info() -> dict:
    """Name, version and live thread count of the BLAS numpy loaded, as far
    as the running numpy reports them."""
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libs = glob.glob(str(Path(np.__file__).resolve().parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                info["threads"] = int(fn())
                break
    return info


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def finite_problem(label, values):
    bad = [v for v in values if not math.isfinite(v)]
    return f"non-finite {label}: {bad[:3]}" if bad else None


def bank_names(model) -> dict[int, str]:
    """layer_id -> "down1", "up4", ... for the convs that form filter banks."""
    return {i: f"{layer.role}{layer.level}" for i, layer in enumerate(model.layers)}


def layer_plan(model):
    return [(l.role, l.level, *l.weights.shape) for l in model.layers]


def brute_force_energy(weights, cfg) -> tuple[float, int]:
    """Ordered-pair energy by explicit double loop over unit rows; shares no
    code with the package. Returns (energy, clamped pair count)."""
    rows = []
    for row in np.asarray(weights, dtype=float).tolist():
        norm = math.sqrt(sum(v * v for v in row))
        rows.append([v / norm for v in row])
    if cfg.space == "half":
        rows = rows + [[-v for v in row] for row in rows]
    total = 0.0
    clamped = 0
    for i, a in enumerate(rows):
        for k, b in enumerate(rows):
            if i == k:
                continue
            if cfg.distance == "euclidean":
                d = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
            else:
                t = sum(x * y for x, y in zip(a, b))
                d = math.acos(min(max(t, -1.0 + 1e-12), 1.0 - 1e-12))
            if d < cfg.clamp_epsilon:
                d = cfg.clamp_epsilon
                clamped += 1
            total += -math.log(d) if cfg.s_power == 0 else d ** (-cfg.s_power)
    return total, clamped


IMPORT_PROBE = (
    "import time; started = time.perf_counter(); import numpy, hypersep; "
    "print(time.perf_counter() - started)"
)


def import_seconds() -> float:
    """Seconds to import numpy and hypersep in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setup(w: Workload, seed: int, work: Path, ops: Ops, phase):
    """Import, generate, load and init w.setup_reps times; returns the last set.

    Imports are timed in a fresh interpreter each time, so that they are
    repeated like the rest of the set-up."""
    samples = {"import": [], "generate": [], "load": [], "init": []}
    for rep in range(w.setup_reps):
        out = work / f"ds{rep}"
        import_s, _ = ops.timed("import", import_seconds)
        samples["import"].append(import_s)
        with phase("bench.setup"):
            _, gen_s = ops.timed(
                "generate_dataset",
                lambda: dataset.generate_dataset(w.songs, w.song_s, RATE, seed, out),
            )
            data, load_s = ops.timed(
                "load_split", lambda: dataset.load_split(dataset.load_manifest(out))
            )
            model, init_s = ops.timed(
                "init_net", lambda: net.init_net(net.NetConfig(seed=seed, **w.net_config))
            )
        samples["generate"].append(gen_s)
        samples["load"].append(load_s)
        samples["init"].append(init_s)
        if rep + 1 < w.setup_reps:
            shutil.rmtree(out)
    return data, model, samples


def small_train_config(seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        batch_size=8,
        learning_rate=1e-3,
        iterations_per_epoch=SMALL_ITERS,
        patience_epochs=2,  # above max_epochs: never stops early
        max_epochs=1,
        lambda_mode="inv_L",
        mhe=TRAIN_MHE,
        finetune=training.FinetuneConfig(enabled=False),
        seed=seed,
    )


class SmallTrainer:
    """One whole train() call per round, always from the initial weights."""

    def __init__(self, model, data, seed, rounds, ops, results):
        self.model, self.data, self.ops, self.results = model, data, ops, results
        self.cfg = small_train_config(seed)
        self.trained = None
        # The first epoch of a process runs about a fifth slower: warm up first.
        warm_up = dataclasses.replace(self.cfg, iterations_per_epoch=10)
        ops.timed("train warm-up", lambda: training.train(model.clone(), data, warm_up),
                  self.check_log)

    @staticmethod
    def check_log(result):
        values = [v for r in result.log.records for v in (r.train_mse, r.mhe_penalty, r.val_loss)]
        return finite_problem("loss or penalty", values)

    def round(self) -> float:
        start = self.model.clone()
        result, wall = self.ops.timed("train", lambda: training.train(start, self.data, self.cfg),
                                      self.check_log)
        if self.trained is None:
            self.trained = result.net
            records = result.log.records
            self.results["losses"] = hexes(v for r in records for v in (r.train_mse, r.val_loss))
            self.results["penalties"] = hexes(r.mhe_penalty for r in records)
        return wall / SMALL_ITERS


class PaperTrainer:
    """One compute_loss + adam_step per round on seeded augmented crops."""

    def __init__(self, model, data, seed, rounds, ops, results):
        self.model, self.ops, self.results = model, ops, results
        self.trained = model
        self.cfg = training.TrainConfig(batch_size=PAPER_BATCH, lambda_mode="inv_L", mhe=TRAIN_MHE,
                                        seed=seed)
        self.batches = paper_batches(data, model.config.input_len, seed, rounds)
        self.params = model.parameters()
        self.state = training.AdamState.for_params(self.params)
        results["losses"], results["penalties"] = [], []

    def step(self, batch):
        loss, mse, penalty, grads = training.compute_loss(self.model, batch, self.cfg)
        cfg = self.cfg
        training.adam_step(self.params, grads, self.state, cfg.learning_rate, cfg.beta1, cfg.beta2,
                           cfg.adam_epsilon)
        return loss, mse, penalty

    def round(self) -> float:
        batch = self.batches.pop(0)
        (loss, mse, penalty), wall = self.ops.timed(
            "step", lambda: self.step(batch), lambda out: finite_problem("loss", out))
        self.results["losses"] += hexes([loss, mse])
        self.results["penalties"] += hexes([penalty])
        return wall


def paper_batches(data, window, seed, count):
    """Seeded augmented crops of the training songs, one batch per step."""
    rng = np.random.default_rng([seed, 1])
    batches = []
    for _ in range(count):
        mixtures = np.empty((PAPER_BATCH, window))
        targets = np.empty((PAPER_BATCH, window))
        for i in range(PAPER_BATCH):
            song = data.train[int(rng.integers(len(data.train)))]
            offset = int(rng.integers(song.mixture.size - window + 1))
            targets[i], mixtures[i] = training.augment(
                song.vocals[offset : offset + window],
                song.accompaniment[offset : offset + window],
                rng,
            )
        batches.append((mixtures, targets))
    return batches


def check_report(report):
    values = [v for s in report.songs for v in (s.mean, s.median, s.sd, s.mad)]
    for stats in (*report.song_level.values(), *report.pooled.values()):
        values += [stats.mean, stats.median, stats.sd, stats.mad]
    return finite_problem("SDR statistic", values)


def check_separation(model, mixture, ops):
    """Accompaniment must be the mixture minus the vocals, exactly."""

    def exact(out):
        vocals, accompaniment = out
        if not np.array_equal(accompaniment, mixture - vocals):
            return "accompaniment differs from mixture - vocals"
        return None

    ops.timed("separate_signal", lambda: net.separate_signal(model, mixture), exact)


def check_oracle(bank, ops):
    """layer_energy on one bank against the benchmark's own double sum."""
    for label, cfg in PENALTY_CONFIGS.items():
        fast = energy.layer_energy(bank, cfg)
        expected, clamped = brute_force_energy(bank.weights, cfg)
        problem = None
        if abs(fast.energy - expected) > ORACLE_ATOL + ORACLE_RTOL * abs(expected):
            problem = f"layer_energy {fast.energy!r} vs double sum {expected!r}"
        elif fast.clamped_pairs != clamped:
            problem = f"clamped pairs {fast.clamped_pairs} vs {clamped}"
        ops.check(f"oracle {label}", problem)


def penalty_round(banks, lam, ops, samples) -> list[float]:
    """mhe_penalty under each config, PENALTY_REPS[label] times; returns the first values."""

    def check(out):
        total, grads = out
        return finite_problem("penalty", [total] + [float(np.sum(np.abs(g))) for g in grads])

    values = []
    for label, cfg in PENALTY_CONFIGS.items():
        for rep in range(PENALTY_REPS[label]):
            (total, _), wall = ops.timed(f"mhe_penalty {label}",
                                         lambda: energy.mhe_penalty(banks, cfg, lam), check)
            samples[f"penalty_s.{label}"].append(wall)
            if rep == 0:
                values.append(total)
    return values


def thomson_seed(seed: int, index: int) -> int:
    """Seed of the run's index-th Thomson solve."""
    return seed * 1000 + index


def thomson_solve(seed, reference, ops) -> tuple[float, float]:
    """The CLI's solve from the given seed; returns (best energy, wall seconds)."""

    def close(out):
        gap = abs(out[0] - reference) / reference
        return f"energy {out[0]!r} is {gap:.2e} from the icosahedron" if gap > THOMSON_TOLERANCE else None

    (best, _), wall = ops.timed(
        "minimize_energy",
        lambda: thomson.minimize_energy(THOMSON_POINTS, 3, THOMSON_CONFIG, steps=2000, restarts=8,
                                        seed=seed),
        close,
    )
    return best, wall


def install(tracer: Tracer) -> None:
    """Timing wrappers on the names where callers look the functions up."""

    def bank_attrs(args, kwargs):
        bank, cfg = args[0], args[1]
        return {"config": cfg.label().replace("/", "_"), "layer_id": bank.layer_id}

    def energy_result(span, result):
        span.attrs["energy"] = result.energy
        tracer.count("energy.clamped_pairs", result.clamped_pairs)

    def batch_of(index):
        return lambda args, kwargs: {"batch": int(np.shape(args[index])[0])}

    for module in (training, net):
        tracer.patch(module, "forward_batch", "net.forward_batch", batch_of(1))
        tracer.patch(module, "backward_batch", "net.backward_batch", batch_of(2))
    tracer.patch(training, "collect_filter_banks", "net.collect_filter_banks")
    for module in (training, energy):
        tracer.patch(module, "mhe_penalty", "energy.mhe_penalty")
    for attr in ("train", "compute_loss", "adam_step", "validation_mse"):
        tracer.patch(training, attr, f"training.{attr}")
    for module in (energy, thomson):
        tracer.patch(module, "layer_energy", "energy.layer_energy", bank_attrs, energy_result)
    tracer.patch(thomson, "minimize_energy", "thomson.minimize_energy")
    for module in (sdr, net):
        tracer.patch(module, "separate_signal", "net.separate_signal")
    tracer.patch(sdr, "evaluate_songs", "sdr.evaluate_songs")
    for attr in ("read_wav", "write_wav"):
        tracer.patch(dataset, attr, f"wavio.{attr}")
    for attr in ("generate_dataset", "load_split"):
        tracer.patch(dataset, attr, f"dataset.{attr}")


def accepted_per_eval(spans, solve) -> tuple[int, int]:
    """Replay one solve's acceptance rule over its energy evaluations.

    A restart starts with an evaluation of fresh points; each later
    evaluation is a trial, accepted when its energy does not exceed the
    last accepted one. Returns (accepted steps, evaluations).
    """
    accepted = evals = 0
    current = None
    for span in spans:
        if span.start < solve.start or span.end > solve.end:
            continue
        if span.name == "thomson.restart":
            current = None
        elif span.name == "energy.layer_energy":
            evals += 1
            e = span.attrs["energy"]
            if current is None:
                current = e
            elif e <= current:
                accepted += 1
                current = e
    return accepted, evals


def per_layer(tracer: Tracer, model, penalty_net) -> dict[str, float]:
    """Per-layer values from the spans; ``model`` is the trained net and
    ``penalty_net`` the one whose banks the penalty phase timed."""
    spans = tracer.spans
    own = self_times(spans)
    # The benchmark phase ("bench.train", ...) each span ran in; a parent
    # always precedes its children in the list.
    phase_of: dict[int, str] = {}
    for s in spans:
        phase_of[s.id] = s.name if s.parent is None else phase_of[s.parent]

    def named(name, phase=None):
        return [s for s in spans if s.name == name and (phase is None or phase_of[s.id] == phase)]

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def self_median(name, phase=None):
        return median(own[s.id] for s in named(name, phase))

    out: dict[str, float] = {}
    fwd, bwd = named("net.forward_batch"), named("net.backward_batch")
    plan = layer_plan(model)
    t = model.config.input_len
    out["net.forward_batch.self_s"] = self_median("net.forward_batch")
    out["net.forward_batch.p90_s"] = percentile([own[s.id] for s in fwd], 90.0) if fwd else 0.0
    out["net.backward_batch.self_s"] = self_median("net.backward_batch")
    out["net.forward_batch.peak_alloc_mb"] = median(s.peak_alloc / 2**20 for s in fwd)
    out["net.backward_batch.peak_alloc_mb"] = median(s.peak_alloc / 2**20 for s in bwd)
    out["net.conv_gflops_fwd"] = median(
        conv_flops(plan, t, s.attrs["batch"]) / own[s.id] / 1e9 for s in fwd)
    out["net.conv_gflops_bwd"] = median(
        2 * conv_flops(plan, t, s.attrs["batch"]) / own[s.id] / 1e9 for s in bwd)
    out["net.forward_batch.calls"] = len(fwd)
    out["net.backward_batch.calls"] = len(bwd)

    in_training = named("energy.mhe_penalty", "bench.train")
    out["energy.mhe_penalty.self_s"] = median(own[s.id] for s in in_training)
    out["energy.mhe_penalty.total_s"] = median(s.duration for s in in_training)
    penalty_calls = named("energy.layer_energy", "bench.penalty")
    names = bank_names(penalty_net)
    for label in PENALTY_CONFIGS:
        mine = [s for s in penalty_calls if s.attrs["config"] == label]
        for bank in ("down1", "down2", "down3", "down4", "up4", "up3", "up2", "up1"):
            out[f"energy.layer_energy_s.{label}.{bank}"] = median(
                s.duration for s in mine if names[s.attrs["layer_id"]] == bank)
        out[f"energy.layer_energy.peak_alloc_mb.{label}"] = max(
            (s.peak_alloc / 2**20 for s in mine), default=0.0)

    solves = named("thomson.minimize_energy", "bench.thomson")
    out["energy.layer_energy.call_us"] = median(
        s.duration * 1e6 for s in named("energy.layer_energy", "bench.thomson"))
    accepted, evals = accepted_per_eval(spans, solves[0]) if solves else (0, 0)
    out["energy.layer_energy.calls"] = evals
    out["thomson.minimize_energy.self_s"] = self_median("thomson.minimize_energy", "bench.thomson")
    out["thomson.accepted_per_eval"] = accepted / evals if evals else 0.0
    out["energy.clamped_pairs"] = tracer.counts.get("energy.clamped_pairs", 0)

    for name in ("train", "compute_loss", "adam_step", "validation_mse"):
        out[f"training.{name}.self_s"] = self_median(f"training.{name}")
    out["net.separate_signal.self_s"] = self_median("net.separate_signal", "bench.eval")
    out["sdr.evaluate_songs.self_s"] = self_median("sdr.evaluate_songs")
    out["sdr.segments"] = tracer.counts.get("sdr.segments", 0)
    out["dataset.generate_dataset_s"] = median(s.duration for s in named("dataset.generate_dataset"))
    out["dataset.load_split_s"] = median(s.duration for s in named("dataset.load_split"))
    out["wavio.read_wav.self_s"] = self_median("wavio.read_wav")
    out["wavio.write_wav.self_s"] = self_median("wavio.write_wav")
    return out


def run(w: Workload, seed: int, rounds: int, traced: bool, out_dir: Path) -> dict:
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ops = Ops()
    results: dict[str, list[str]] = {"penalty_phase": [], "thomson": []}
    samples: dict[str, list[float]] = {
        "step_s": [], "eval_s": [], "thomson_s": [],
        **{f"penalty_s.{label}": [] for label in PENALTY_CONFIGS},
    }
    tracer = Tracer(f"{w.name}-s{seed}", memory=True) if traced else None
    phase = tracer.span if tracer else (lambda name: nullcontext())
    import_s = time.perf_counter() - _STARTED
    completed = False
    try:
        if tracer:
            install(tracer)
        data, model, setup_samples = setup(w, seed, work, ops, phase)
        samples.update({f"{k}_s": v for k, v in setup_samples.items()})
        samples["setup_s"] = [sum(parts) for parts in zip(*setup_samples.values())]

        penalty_net = net.init_net(net.NetConfig(seed=seed))
        banks = net.collect_filter_banks(penalty_net)
        lam = training.resolve_lambda(training.TrainConfig(lambda_mode="inv_L"), len(banks))
        reference = thomson.reference_energy("icosahedron", THOMSON_CONFIG)
        with phase("bench.train"):
            trainer = (SmallTrainer if w is SMALL else PaperTrainer)(
                model, data, seed, rounds, ops, results)
        audio_s = sum(song.mixture.size / song.sample_rate for song in data.test)

        def solve_thomson(count):
            if tracer:
                # tracemalloc would slow Thomson's thousands of tiny calls several-fold;
                # each restart draws a fresh generator, which marks it in the trace.
                tracer.set_memory(False)
                tracer.patch(np.random, "default_rng", "thomson.restart")
            with phase("bench.thomson"):
                for _ in range(count):
                    index = len(samples["thomson_s"])
                    best, wall = thomson_solve(thomson_seed(seed, index), reference, ops)
                    samples["thomson_s"].append(wall)
                    results["thomson"].append(best.hex())
            if tracer:
                tracer.unpatch(np.random, "default_rng")
                tracer.set_memory(True)

        for rnd in range(rounds):
            # Thomson, the noisiest timing, brackets the other phases.
            solve_thomson(w.thomson_reps // 2)
            with phase("bench.train"):
                samples["step_s"].append(trainer.round())
            with phase("bench.eval"):
                for _ in range(w.eval_reps):
                    report, wall = ops.timed(
                        "evaluate_songs", lambda: sdr.evaluate_songs(trainer.trained, data.test),
                        check_report)
                    samples["eval_s"].append(wall)
            with phase("bench.penalty"):
                values = penalty_round(banks, lam, ops, samples)
            if rnd == 0:
                results["penalty_phase"] = hexes(values)
                if tracer:
                    tracer.count("sdr.segments", sum(s.segments for s in report.songs))
            solve_thomson(w.thomson_reps - w.thomson_reps // 2)
        check_separation(trainer.trained, data.test[0].mixture[: 2 * model.config.input_len], ops)
        check_oracle(banks[0], ops)  # down1, the smallest bank
        completed = True
    except Aborted:
        pass
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    out = {
        "workload": w.name,
        "seed": seed,
        "rounds": rounds,
        "traced": traced,
        "completed": completed,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "import_s": import_s,
        "environment": {"numpy": np.__version__, "blas": blas_info()},
        "summaries": {k: summarize(v) for k, v in samples.items() if v},
        "results": results,
    }
    if completed:
        values = {
            "setup_s": statistics.median(samples["setup_s"]),
            "step_s": statistics.median(samples["step_s"]),
            "eval_rtf": audio_s / statistics.median(samples["eval_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "thomson_s": statistics.mean(samples["thomson_s"]),
        }
        for label in PENALTY_CONFIGS:
            values[f"penalty_s.{label}"] = statistics.median(samples[f"penalty_s.{label}"])
        out["values"] = values
        if tracer:
            out["per_layer"] = per_layer(tracer, model, penalty_net)
            spans_path = out_dir / f"spans-{w.name}-s{seed}.jsonl"
            tracer.write_jsonl(spans_path)
            out["spans_file"] = str(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--pair", type=int, choices=(0, 1), default=0,
                        help="1: one run of an untraced/traced pair, sized alike")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    result = run(w, args.seed, w.rounds(args.seconds, bool(args.pair)), bool(args.trace), args.out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
