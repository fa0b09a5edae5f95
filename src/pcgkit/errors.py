"""The one domain error of the toolkit, and the checks that raise it.

Bad files and violated contracts raise :class:`PcgError`, the only
exception class pcgkit defines; its message says what was refused.  A
bad argument value (a count, a window, a grid axis, a training or synth
setting) or a feature value that is not finite raises ValueError, and so
does a hidden size too large for the machine (`nnet.check_memory`, the
one memory rule).  The CLI maps both to exit 1, and OSError to exit 2,
so neither is taken for a genuine bug.
:func:`json_object` is the one reader of JSON from outside the program
(model headers, feature sidecars, run configs): whatever it cannot read
as an object it refuses with a PcgError naming the file.
:func:`check_count` is the one check of every count the library takes:
an integer, not a bool, at least a floor.
:func:`check_real` is the one check of every real-valued setting (a synth
duration, gain or noise floor, a Gaussian window's alpha): an int or
float, not a bool, that a float holds finitely, at least a floor.
"""

import json
import math
import operator


class PcgError(Exception):
    """The one error pcgkit raises for a bad file or a violated contract."""


def check_count(name: str, value, least: int) -> None:
    """ValueError, naming the value, unless it is an integer >= least."""
    try:
        if isinstance(value, bool):  # an int to Python, not a count
            raise TypeError
        operator.index(value)  # refuses floats, NaN included, and strings
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {_shown(value)}")


def _shown(value) -> str:
    """repr(value), or, for an integer with more digits than Python turns
    into a string (sys.get_int_max_str_digits()), its sign and length."""
    try:
        return repr(value)
    except ValueError:
        n = abs(operator.index(value))
        digits = int(math.log10(n)) + 1  # log10 rounds near a power of ten
        digits += (n >= 10 ** digits) - (n < 10 ** (digits - 1))
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {digits} digits"


def check_real(name: str, value, least: float = -math.inf) -> None:
    """ValueError, naming the value, unless it is an int or float, not a
    bool, that a float holds finitely (NaN, infinities and ints beyond
    sys.float_info.max are not), and >= least."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        raise ValueError(f"{name} must be finite, got an int beyond the "
                         "largest float") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def json_object(raw: bytes, where) -> dict:
    """The JSON object that `raw` holds as UTF-8.

    Raises PcgError, naming `where`, on bad UTF-8, bad JSON, nesting too
    deep for the parser, or a JSON value that is not an object.
    """
    try:
        value = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON or nesting
        raise PcgError(f"{where}: not JSON ({exc})") from None
    if not isinstance(value, dict):
        raise PcgError(f"{where}: not a JSON object")
    return value
