"""Exception types shared across the package.

Every error raised by hypersep code derives from :class:`HypersepError`,
so callers can catch one base class at the CLI boundary. Constructors
accept a human-readable message; a few carry structured fields (the
offending row or layer id) that tests and callers can inspect.
"""

import dataclasses
import numbers
import typing


class HypersepError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfig(HypersepError):
    """A configuration object violates one of its invariants."""


def check_fields(config, **bounds) -> None:
    """Raise InvalidConfig naming the first field of a config dataclass whose value is not
    of its annotated type, not in its tuple of choices in bounds, or below its int there."""
    for f in dataclasses.fields(config):
        value, bound = getattr(config, f.name), bounds.get(f.name)
        if not _is_a(value, f.type):
            kind = f.type.__name__ if isinstance(f.type, type) else f.type  # tuple[float, float] as written
            raise InvalidConfig(f"{f.name} must be {kind}, got {value!r}")
        if isinstance(bound, tuple) and value not in bound:
            raise InvalidConfig(f"{f.name} must be one of {bound}, got {value!r}")
        if isinstance(bound, int) and value is not None and value < bound:
            raise InvalidConfig(f"{f.name} must be >= {bound}, got {value}")


def _is_a(value, kind) -> bool:
    """isinstance for annotations: `X | None` takes None too, tuple[...] checks its
    items, int takes numpy ints, float any real number, and bool is no number."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        return isinstance(value, tuple) and len(value) == len(args) and all(map(_is_a, value, args))
    if args:
        return any(_is_a(value, a) for a in args)
    numeric = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    return isinstance(value, bool) == (kind is bool) and isinstance(value, numeric)


class ZeroNormFilter(HypersepError):
    """A filter row has (near-)zero norm and cannot be projected to the sphere."""

    def __init__(self, row: int, norm: float = 0.0):
        self.row = row
        self.norm = norm
        super().__init__(f"filter row {row} has norm {norm:.3e}, too small to normalize")


class DegenerateBank(HypersepError):
    """A filter bank has too few rows for pairwise energy to be defined."""

    def __init__(self, layer_id: int, message: str = ""):
        self.layer_id = layer_id
        super().__init__(message or f"filter bank for layer {layer_id} is degenerate")


class ShapeMismatch(HypersepError):
    """Array arguments disagree in shape where they must match."""


class LengthMismatch(HypersepError):
    """Paired signals differ in length."""


class EmptyDataset(HypersepError):
    """A dataset split required for the operation has no usable songs."""


class EmptySignal(HypersepError):
    """A signal is empty or shorter than one evaluation segment."""


class UnsupportedFormat(HypersepError):
    """A WAV file is readable but not in the supported PCM16 mono format."""


class IoError(HypersepError):
    """An underlying filesystem operation failed."""


class Diverged(HypersepError):
    """Training produced a non-finite loss or parameter (iteration None: the validation loss)."""

    def __init__(self, epoch: int, iteration: int | None, layer_id: int | None, what: str):
        self.epoch = epoch
        self.iteration = iteration
        self.layer_id = layer_id
        self.records: list = []  # train attaches every epoch completed before it, numbered as in its log
        where = f"epoch {epoch}" if iteration is None else f"epoch {epoch}, iteration {iteration}"
        super().__init__(f"training diverged at {where}: {what} is not finite")


class ConsumedCache(HypersepError):
    """A forward cache was used again after backward_batch released its activations."""


class CorruptHeader(HypersepError):
    """A binary file (WAV or checkpoint) fails structural validation."""


class IncompatibleShape(HypersepError):
    """Stored parameters do not match the declared architecture."""
