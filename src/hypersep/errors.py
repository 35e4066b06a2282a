"""Exception types shared across the package.

Every error raised by hypersep code derives from :class:`HypersepError`,
so callers can catch one base class at the CLI boundary. Constructors
accept a human-readable message; a few carry structured fields (the
offending row or layer id) that tests and callers can inspect.
"""


class HypersepError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfig(HypersepError):
    """A configuration object violates one of its invariants."""


class ZeroNormFilter(HypersepError):
    """A filter row has (near-)zero norm and cannot be projected to the sphere."""

    def __init__(self, row: int, norm: float = 0.0):
        self.row = row
        self.norm = norm
        super().__init__(f"filter row {row} has norm {norm:.3e}, too small to normalize")


class NonPositiveDistance(HypersepError):
    """A repulsion kernel was evaluated at a non-positive distance."""


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
        self.records: list = []  # the diverged phase's completed epochs, once attached
        where = f"epoch {epoch}" if iteration is None else f"epoch {epoch}, iteration {iteration}"
        super().__init__(f"training diverged at {where}: {what} is not finite")


class CorruptHeader(HypersepError):
    """A binary file (WAV or checkpoint) fails structural validation."""


class IncompatibleShape(HypersepError):
    """Stored parameters do not match the declared architecture."""
