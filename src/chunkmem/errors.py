"""Error types shared across the library."""


class ShapeError(ValueError):
    """Operand shapes are incompatible; message names both shapes."""


class ContractError(ValueError):
    """An API precondition was violated (bad argument, wrong call order)."""


class EmptyMemoryError(ValueError):
    """Relevance scoring was asked for a memory with zero complete chunks."""


class CheckpointError(ValueError):
    """Base class for checkpoint load failures."""


class VersionMismatchError(CheckpointError):
    """Manifest schema version differs from the one this code writes."""


class ShapeMismatchError(CheckpointError):
    """A stored parameter shape disagrees with the manifest or model."""


class TruncatedBlobError(CheckpointError):
    """The binary blob is shorter than the manifest says it should be."""


class NonFiniteLossError(RuntimeError):
    """Training produced a NaN or infinite loss, or evaluation non-finite
    logits; the message names the step or the episode."""
