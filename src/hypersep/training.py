"""Training loop: MSE objective plus the hyperspherical energy penalty.

The protocol is two-phase. Phase one trains with Adam on random fixed-length
crops, augmenting each crop by attenuating the vocals with a uniform factor
and resynthesizing the mixture; after every epoch (a fixed iteration count)
the full validation split is scored and training stops once the validation
loss (MSE plus penalty) has not improved for `patience_epochs` epochs. Phase
two (fine-tuning) runs the same loop from the best phase-one parameters, with
the batch size doubled, a much smaller learning rate and a fresh optimizer
state; it must beat phase one's best validation loss, and the best checkpoint
over both phases is kept. A non-finite loss or parameter raises Diverged at once.
The parameters, their gradient and Adam's moments are flat vectors in
net.parameters() order, so an update or a finiteness check is one pass.

Everything is driven by one master seed: sampling and augmentation get
independent child streams, and the stream consumption per iteration is
fixed, so runs with different patience settings see identical batches.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import MheConfig, mhe_penalty
from .errors import Diverged, EmptyDataset, InvalidConfig, LengthMismatch, ShapeMismatch, check_fields
from .fileio import write_csv_rows
from .net import (_INFERENCE_BATCH, NetConfig, SepNet, _first_nonfinite, _views, _windows_per_call, backward_batch,
                  collect_filter_banks, forward_batch)

LAMBDA_MODES = ("half_inv_L", "inv_L", "one", "custom", "off")


@dataclass(frozen=True)
class FinetuneConfig:
    enabled: bool = True
    batch_multiplier: int = 2
    learning_rate: float = 1e-5
    max_epochs: int | None = None

    def __post_init__(self):
        check_fields(self, batch_multiplier=1, max_epochs=0)
        if not 0 < self.learning_rate < np.inf:
            raise InvalidConfig("learning_rate must be positive and finite")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    iterations_per_epoch: int = 1000
    patience_epochs: int = 10
    max_epochs: int | None = None
    lambda_mode: str = "inv_L"
    lambda_value: float | None = None
    mhe: MheConfig = field(default_factory=MheConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    augment_range: tuple[float, float] = (0.7, 1.0)
    seed: int = 0

    def __post_init__(self):
        check_fields(self, batch_size=1, iterations_per_epoch=1, patience_epochs=1, max_epochs=0,
                     lambda_mode=LAMBDA_MODES, seed=0)
        if not 0 < self.learning_rate < np.inf:
            raise InvalidConfig("learning_rate must be positive and finite")
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= beta < 1.0:
                raise InvalidConfig(f"{name} must lie in [0, 1), got {beta}")
        if not 0 < self.adam_epsilon < np.inf:
            raise InvalidConfig("adam_epsilon must be positive and finite")
        if self.lambda_mode == "custom":
            if self.lambda_value is None or not 0 <= self.lambda_value < np.inf:
                raise InvalidConfig("custom lambda_mode needs a finite non-negative lambda_value")
        low, high = self.augment_range
        if not (0.0 < low <= high <= 1.0):
            raise InvalidConfig(f"augment_range must satisfy 0 < low <= high <= 1, got {self.augment_range}")


def resolve_lambda(cfg: TrainConfig, hidden_layers: int) -> float:
    """Penalty weight for a given hidden-layer count L."""
    if cfg.lambda_mode == "off":
        return 0.0
    if hidden_layers < 1:
        raise InvalidConfig("lambda resolution needs at least one hidden layer")
    if cfg.lambda_mode == "half_inv_L":
        return 1.0 / (2 * hidden_layers)
    if cfg.lambda_mode == "inv_L":
        return 1.0 / hidden_layers
    if cfg.lambda_mode == "one":
        return 1.0
    return float(cfg.lambda_value)


@dataclass
class AdamState:
    """Adam's first and second moments, each shaped like the parameter vector, and its step count."""

    first: np.ndarray
    second: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update of the parameter vector, in place."""
    if not params.shape == grads.shape == state.first.shape:
        raise ShapeMismatch(f"parameters {params.shape}, gradient {grads.shape} and state {state.first.shape} differ")
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    m, v = state.first, state.second
    step, denom = np.empty_like(params), np.empty_like(params)  # every product is written into one of these two
    m *= beta1
    m += np.multiply(1.0 - beta1, grads, out=step)
    v *= beta2
    v += np.multiply(np.multiply(1.0 - beta2, grads, out=step), grads, out=step)
    np.multiply(np.divide(m, c1, out=step), lr, out=step)
    np.add(np.sqrt(np.divide(v, c2, out=denom), out=denom), eps, out=denom)
    params -= np.divide(step, denom, out=step)


def augment(vocals: np.ndarray, accompaniment: np.ndarray, rng: np.random.Generator, low: float = 0.7,
            high: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Attenuate the vocals by u ~ Uniform[low, high] and remix.

    Returns (attenuated vocals, rebuilt mixture); the target and the input
    stay consistent because the mixture is recomputed from the new vocals.
    """
    vocals = np.asarray(vocals, dtype=np.float64)
    accompaniment = np.asarray(accompaniment, dtype=np.float64)
    if vocals.shape != accompaniment.shape:
        raise LengthMismatch(
            f"vocals shape {vocals.shape} does not match accompaniment {accompaniment.shape}"
        )
    u = rng.uniform(low, high)
    attenuated = u * vocals
    return attenuated, accompaniment + attenuated


def compute_loss(net: SepNet, batch: tuple[np.ndarray, np.ndarray],
                 cfg: TrainConfig) -> tuple[float, float, float, np.ndarray]:
    """Loss, its MSE and penalty parts, and its gradient for one batch.

    batch is (mixtures, target_vocals), both (B, input_len). The gradient
    is a flat vector in net.parameters() order, with the energy gradients
    added into the conv weight slots.

    The batch runs in chunks of net._windows_per_call(B, input_len)
    windows, each through forward_batch and backward_batch before the next
    starts, so a step holds one chunk's activations whatever B is. The
    chunks' squared errors are summed, and every chunk's backward_batch
    adds into the same gradient vector; a batch that fits one chunk runs
    as one call of each.
    """
    mixtures, targets = batch
    mixtures = np.asarray(mixtures, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if mixtures.shape != targets.shape:
        raise ShapeMismatch(f"mixtures {mixtures.shape} vs targets {targets.shape}")
    if mixtures.ndim != 2 or mixtures.shape[0] < 1:
        raise ShapeMismatch(f"batch must be non-empty (B, T), got {mixtures.shape}")
    grad, squares, chunk = np.zeros_like(net.parameters()), 0.0, _windows_per_call(len(mixtures), mixtures.shape[1])
    for start in range(0, len(mixtures), chunk):
        vocals, cache = forward_batch(net, mixtures[start : start + chunk])
        err = vocals - targets[start : start + chunk]
        squares += float(np.sum(err * err))
        backward_batch(net, cache, (2.0 / mixtures.size) * err, grad)
        del vocals, cache, err  # before the next chunk's forward
    mse = squares / mixtures.size
    if cfg.lambda_mode == "off":  # before the banks: collect_filter_banks checks every weight
        return mse, mse, 0.0, grad
    banks = collect_filter_banks(net)
    lam = resolve_lambda(cfg, len(banks))
    if lam == 0.0:
        return mse, mse, 0.0, grad
    penalty, bank_grads = mhe_penalty(banks, cfg.mhe, lam)
    slots = _views(net.config, grad)
    for bank, g in zip(banks, bank_grads):
        slots[bank.layer_id].weights.reshape(g.shape)[:] += g
    return mse + penalty, mse, penalty, grad


@dataclass
class EpochRecord:
    epoch: int
    train_mse: float
    mhe_penalty: float
    val_loss: float
    lambda_h: float
    seconds: float
    val_mse: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def __post_init__(self):
        epochs = [r.epoch for r in self.records]
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            raise InvalidConfig("log epochs must be strictly increasing")

    def write_csv(self, path) -> None:
        rows = [["epoch", "mse", "mhe_penalty", "val_loss", "lambda", "seconds", "val_mse"]]
        rows += [
            [r.epoch, repr(r.train_mse), repr(r.mhe_penalty), repr(r.val_loss),
             repr(r.lambda_h), repr(r.seconds), repr(r.val_mse)]
            for r in self.records
        ]
        write_csv_rows(path, rows)


@dataclass
class TrainResult:
    net: SepNet
    log: TrainLog
    best_epoch: int
    best_val_loss: float


def _eligible(songs, window: int):
    return [s for s in songs if s.mixture.size >= window]


def _sample_batch(songs, cfg: TrainConfig, window: int, rng_sample, rng_aug):
    """One training batch of augmented random crops.

    Per item the stream use is fixed (two integer draws and one uniform),
    so batch sequences are reproducible independent of song lengths.
    """
    low, high = cfg.augment_range
    mixtures = np.empty((cfg.batch_size, window))
    targets = np.empty((cfg.batch_size, window))
    for i in range(cfg.batch_size):
        song = songs[int(rng_sample.integers(len(songs)))]
        offset = int(rng_sample.integers(song.mixture.size - window + 1))
        voc = song.vocals[offset : offset + window]
        acc = song.accompaniment[offset : offset + window]
        targets[i], mixtures[i] = augment(voc, acc, rng_aug, low, high)
    return mixtures, targets


def validation_mse(net: SepNet, songs) -> float:
    """Mean squared vocal error over consecutive windows of every song, _windows_per_call(_INFERENCE_BATCH,
    input_len) windows per forward_batch call as in separate_signal, so the score is the same at any batch size."""
    window = net.config.input_len
    step = _windows_per_call(_INFERENCE_BATCH, window)
    total_sq = 0.0
    total_n = 0
    for song in songs:
        n_win = song.mixture.size // window
        usable = n_win * window
        mix = song.mixture[:usable].reshape(n_win, window)
        voc = song.vocals[:usable].reshape(n_win, window)
        for start in range(0, n_win, step):
            est = forward_batch(net, mix[start : start + step])[0]  # drop the cache at once
            diff = est - voc[start : start + step]
            total_sq += float(np.sum(diff * diff))
            total_n += diff.size
    if total_n == 0:
        raise EmptyDataset("validation songs are all shorter than one window")
    return total_sq / total_n


def _validation_loss(net: SepNet, val_songs, cfg: TrainConfig, lam: float, epoch: int) -> tuple[float, float]:
    """Validation MSE and the current penalty, whose sum drives early stopping."""
    val = validation_mse(net, val_songs)
    penalty = mhe_penalty(collect_filter_banks(net), cfg.mhe, lam)[0] if lam else 0.0
    if not np.isfinite(val + penalty):
        raise Diverged(epoch, None, None, "the validation loss")
    return val, penalty


def _check_finite(loss: float, net: SepNet, epoch: int, iteration: int) -> None:
    # A non-finite gradient reaches the parameters through the Adam update.
    if not np.isfinite(loss):
        raise Diverged(epoch, iteration, None, "the training loss")
    bad = _first_nonfinite(net)
    if bad is not None:
        raise Diverged(epoch, iteration, bad[0], f"layer {bad[0]} {bad[1]}")


def _run_phase(net: SepNet, train_songs, val_songs, cfg: TrainConfig, seed_seq, lam: float, best: TrainResult):
    """One phase's epoch loop on net with a fresh Adam state, its epochs numbered on from the last in best.log
    (the phase's start) and appended there. An epoch becomes the best only by beating best.best_val_loss, and
    the phase stops once cfg.patience_epochs epochs pass after the later of the best epoch and the start, or
    after cfg.max_epochs epochs; returns the best result so far, best itself if no epoch beat it."""
    window = net.config.input_len
    child = seed_seq.spawn(2)
    rng_sample = np.random.default_rng(child[0])
    rng_aug = np.random.default_rng(child[1])
    params = net.parameters()
    state = AdamState.for_params(params)
    records = best.log.records
    start = epoch = records[-1].epoch if records else 0
    while cfg.max_epochs is None or epoch < start + cfg.max_epochs:
        epoch += 1
        started = time.perf_counter()
        mse_sum = 0.0
        for iteration in range(1, cfg.iterations_per_epoch + 1):
            batch = _sample_batch(train_songs, cfg, window, rng_sample, rng_aug)
            loss, mse, _, grads = compute_loss(net, batch, cfg)
            adam_step(params, grads, state, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_epsilon)
            _check_finite(loss, net, epoch, iteration)
            mse_sum += mse
        val, penalty_now = _validation_loss(net, val_songs, cfg, lam, epoch)
        val_loss = val + penalty_now
        records.append(EpochRecord(epoch, mse_sum / cfg.iterations_per_epoch, penalty_now, val_loss, lam,
                                   time.perf_counter() - started, val))
        if val_loss < best.best_val_loss:
            best = TrainResult(net.clone(), best.log, epoch, val_loss)
        if epoch - max(best.best_epoch, start) >= cfg.patience_epochs:
            break
    return best


def train(net: SepNet, dataset, cfg: TrainConfig) -> TrainResult:
    """Train from the given parameters: phase one until patience runs out, then, with cfg.finetune.enabled,
    phase two from phase one's best checkpoint.

    `dataset` must expose .train and .validation lists of songs (objects
    with .mixture, .vocals, .accompaniment arrays). The returned result
    carries the best-validation checkpoint of both phases and one log whose
    phase-two epochs number on from phase one's; `net` itself is left at
    its final (not necessarily best) phase-one state. A Diverged carries
    the epochs completed before it in .records.
    """
    window = net.config.input_len
    train_songs = _eligible(dataset.train, window)
    val_songs = _eligible(dataset.validation, window)
    if not train_songs:
        raise EmptyDataset(f"no training song reaches the {window}-sample window")
    if not val_songs:
        raise EmptyDataset(f"no validation song reaches the {window}-sample window")
    lam = resolve_lambda(cfg, len(collect_filter_banks(net)))
    best = TrainResult(net.clone(), TrainLog(), 0, np.inf)
    try:
        best = _run_phase(net, train_songs, val_songs, cfg, np.random.SeedSequence(cfg.seed), lam, best)
        if cfg.finetune.enabled:
            ft = cfg.finetune
            phase_two = replace(cfg, batch_size=cfg.batch_size * ft.batch_multiplier,
                                learning_rate=ft.learning_rate, max_epochs=ft.max_epochs)
            seed_seq = np.random.SeedSequence([cfg.seed, 1])
            best = _run_phase(best.net.clone(), train_songs, val_songs, phase_two, seed_seq, lam, best)
    except Diverged as exc:
        exc.records = best.log.records
        raise
    return best


def _from_mapping(cls, data, context: str):
    """Build a config from one JSON section; an unknown or bad key raises InvalidConfig naming both."""
    if not isinstance(data, dict):
        raise InvalidConfig(f"{context} must be a JSON object, got {data!r}")
    try:
        return cls(**data)
    except (InvalidConfig, TypeError, ValueError) as exc:
        raise InvalidConfig(f"{context}: {exc}") from exc


def train_config_from_dict(data: dict) -> TrainConfig:
    """Build a TrainConfig from parsed JSON, rejecting misspelled keys."""
    data = dict(data)
    for name, cls in (("mhe", MheConfig), ("finetune", FinetuneConfig)):
        if name in data:
            data[name] = _from_mapping(cls, data[name], name)
    if isinstance(data.get("augment_range"), list):
        data["augment_range"] = tuple(data["augment_range"])
    return _from_mapping(TrainConfig, data, "train config")


def net_config_from_dict(data: dict) -> NetConfig:
    return _from_mapping(NetConfig, data, "net config")


def mhe_config_from_dict(data: dict) -> MheConfig:
    return _from_mapping(MheConfig, data, "mhe config")
