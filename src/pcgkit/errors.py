"""Domain error types shared across the toolkit.

Bad files and violated contracts raise a :class:`PcgError`; a bad
argument value (a count, a window, a grid axis, a training setting) or a
feature value that is not finite raises ValueError.  The CLI maps both to
exit 1, and OSError to exit 2, so neither is taken for a genuine bug.
:func:`json_object` is the one reader of JSON from outside the program
(model headers, feature sidecars, run configs): whatever it cannot read
as an object it refuses with a PcgError naming the file.
:func:`check_count` is the one check of every count the library takes:
an integer, not a bool, at least a floor.
"""

import json
import operator


class PcgError(Exception):
    """Base class for all domain errors raised by pcgkit."""


class UnsupportedFormat(PcgError):
    """Audio container is readable but not a supported flavour (mono PCM16)."""


class CorruptHeader(PcgError):
    """Audio container header is malformed or truncated."""


class CorruptModel(PcgError):
    """Model file is malformed, truncated or does not match its layout."""


class InvalidFactor(PcgError):
    """Sample rate is not an integer multiple of the 500 Hz target rate."""


class WindowTooLong(PcgError):
    """Window leaves fewer than two frames of the record at its hop."""


class EmptySequence(PcgError):
    """Classifier input has no time steps or no feature columns."""


class SingleClassDataset(PcgError):
    """Operation requires examples of both classes."""


class NonFiniteLoss(PcgError):
    """Training loss became NaN or infinite."""


class LengthMismatch(PcgError):
    """Paired sequences differ in length, a batch mixes feature configs, or
    the features' width is not the model's input size."""


class InvalidFraction(PcgError):
    """The protocol's train fraction leaves a class's train side empty."""


class InvalidConfig(PcgError):
    """Synthesis or run configuration violates its invariants."""


def check_count(name: str, value, least: int) -> None:
    """ValueError, naming the value, unless it is an integer >= least."""
    try:
        if isinstance(value, bool):  # an int to Python, not a count
            raise TypeError
        operator.index(value)  # refuses floats, NaN included, and strings
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def json_object(raw: bytes, where, error: type[PcgError] = PcgError) -> dict:
    """The JSON object that `raw` holds as UTF-8.

    Raises `error`, naming `where`, on bad UTF-8, bad JSON, nesting too
    deep for the parser, or a JSON value that is not an object.
    """
    try:
        value = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON or nesting
        raise error(f"{where}: not JSON ({exc})") from None
    if not isinstance(value, dict):
        raise error(f"{where}: not a JSON object")
    return value
