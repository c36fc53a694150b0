"""Exception taxonomy shared across the package.

Every error raised by croprank derives from CropError and carries a
short machine-readable ``code`` so the CLI can emit structured error
JSON without string-matching messages.
"""
from __future__ import annotations


class CropError(Exception):
    """Base class for all croprank errors."""

    code = "error"


class DimMismatch(CropError):
    """Operands have incompatible shapes or dtypes for the requested op."""

    code = "dim_mismatch"


class NotScalar(CropError):
    """backward() was called on a tensor with more than one element."""

    code = "not_scalar"


class DisconnectedGraph(CropError):
    """backward() target has no recorded path to any trainable tensor."""

    code = "disconnected_graph"


class MissingGrad(CropError):
    """An optimizer step touched a parameter whose gradient is absent."""

    code = "missing_grad"


class NonFinite(CropError):
    """A value that must be finite (cost, logit) is NaN or infinite."""

    code = "non_finite"


class DomainError(CropError):
    """An input lies outside the mathematical domain of the op (e.g. log of 0)."""

    code = "domain_error"


class Degenerate(CropError):
    """A box has no usable geometry (non-positive extent, corners inverted)."""

    code = "degenerate_box"


class OutOfRange(CropError):
    """A numeric field violates its documented closed range."""

    code = "out_of_range"


class BadProbabilities(CropError):
    """A class-probability vector has the wrong arity or does not sum to one."""

    code = "bad_probabilities"


class BadGrid(CropError):
    """A pooling/attention grid is empty or finer than the source map."""

    code = "bad_grid"


class BadShape(CropError):
    """An array's shape disagrees with the model configuration."""

    code = "bad_shape"


class NonSquare(CropError):
    """The assignment solver requires a square cost matrix."""

    code = "non_square"


class CardinalityMismatch(CropError):
    """More targets than predictions: the matching has no feasible padding."""

    code = "cardinality_mismatch"


class KTooLarge(CropError):
    """Ranking depth K exceeds the number of available predictions."""

    code = "k_too_large"


class NTooLarge(CropError):
    """Ground-truth pool size N exceeds the number of annotated crops."""

    code = "n_too_large"


class EmptySK(CropError):
    """An averaged accuracy was requested over an empty set of K values."""

    code = "empty_sk"


class ParseError(CropError):
    """A dataset line or config entry is not valid for its schema."""

    code = "parse_error"

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.line = line
        self.field = field


class RangeError(CropError):
    """A dataset record carries a value outside its documented range."""

    code = "range_error"

    def __init__(self, message: str, *, record: str | None = None):
        suffix = f" (record {record!r})" if record is not None else ""
        super().__init__(message + suffix)
        self.record = record


class MissingFile(CropError):
    """A file referenced by a dataset or checkpoint does not exist."""

    code = "missing_file"


class BadMagic(CropError):
    """A binary tensor file does not start with the AESC magic."""

    code = "bad_magic"


class BadVersion(CropError):
    """A binary tensor header declares an unsupported version or dtype."""

    code = "bad_version"


class TruncatedPayload(CropError):
    """A binary tensor file ends before the declared payload is complete."""

    code = "truncated_payload"


class ChecksumMismatch(CropError):
    """A checkpoint file's bytes differ from the sha256 its manifest records."""

    code = "checksum_mismatch"
