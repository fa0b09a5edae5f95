"""The one refusal type, `errors.PcgError`; the one count rule,
`errors.check_count`, and the library's counts that go through it; the
one real-number rule, `errors.check_real`."""

import importlib
import pkgutil
import re

import numpy as np
import pytest

import pcgkit
from pcgkit import errors
from pcgkit.errors import PcgError, check_count, check_real
from pcgkit.features import feature_matrix
from pcgkit.ingest import Label
from pcgkit.synth import SynthConfig, generate, generate_dataset
from pcgkit.windows import WindowShape, WindowSpec, frame_matrix

G = WindowShape.GAUSSIAN


class TestOneRefusalType:
    """Every refusal is a PcgError told apart by its message alone."""

    def test_pcg_error_has_no_subclasses(self):
        for module in pkgutil.iter_modules(pcgkit.__path__):
            importlib.import_module(f"pcgkit.{module.name}")
        assert PcgError.__subclasses__() == []

    def test_errors_defines_no_other_exception(self):
        defined = [v for v in vars(errors).values()
                   if isinstance(v, type) and issubclass(v, BaseException)
                   and v.__module__ == errors.__name__]
        assert defined == [PcgError]

    def test_package_exports_only_its_modules(self):
        modules = {m.name for m in pkgutil.iter_modules(pcgkit.__path__)}
        for name in modules:
            importlib.import_module(f"pcgkit.{name}")
        # Every dunder but __version__ is the import system's.
        names = {n for n in vars(pcgkit)
                 if not n.startswith("__") or n == "__version__"}
        assert names == modules | {"__version__"}


class TestCheckCount:
    @pytest.mark.parametrize("value", [1, 7, np.int64(3), np.int32(1)])
    def test_integers_at_least_the_floor_pass(self, value):
        check_count("n", value, 1)

    @pytest.mark.parametrize("value", [2.5, 3.0, float("nan"), "3", None,
                                       True, False, np.float64(2.0)])
    def test_non_integers_refused(self, value):
        message = f"n must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_count("n", value, 0)

    @pytest.mark.parametrize("value, shown", [
        (-10**5000, "a negative integer of 5001 digits"),
        (1 - 10**5000, "a negative integer of 5000 digits"),
    ], ids=["5001-digits", "5000-digits"])
    def test_floor_named_for_an_int_too_long_to_print(self, value, shown):
        # Python turns no int of more than 4300 digits into a string.
        message = f"half_length must be >= 1, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_count("half_length", value, 1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WindowSpec(G, value)


class TestCheckReal:
    @pytest.mark.parametrize("value", [0, 2.5, -3, 10**300, np.float64(2.5),
                                       1.7976931348623157e308])
    def test_finite_numbers_pass(self, value):
        check_real("x", value)

    @pytest.mark.parametrize("value", [True, "3", None, 1j, np.int64(3)])
    def test_non_numbers_refused(self, value):
        message = f"x must be a number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_real("x", value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), 10**400, -10**400])
    def test_non_finite_refused(self, value):
        with pytest.raises(ValueError, match="^x must be finite, got "):
            check_real("x", value)

    def test_floor(self):
        check_real("x", 0.0, least=0)
        with pytest.raises(ValueError, match=r"^x must be >= 0, got -0.5$"):
            check_real("x", -0.5, least=0)


@pytest.mark.parametrize("call, message", [
    (lambda: WindowSpec(G, 7.5), "half_length must be an integer, got 7.5"),
    (lambda: WindowSpec.from_nominal_length(G, 30.0),
     "nominal length must be an integer, got 30.0"),
    (lambda: frame_matrix(np.ones(100), WindowSpec(G, 5), hop=2.5),
     "hop must be an integer, got 2.5"),
    (lambda: feature_matrix(np.ones((3, 11)), bins=2.5),
     "bins must be an integer, got 2.5"),
    (lambda: generate_dataset(1.5, 1), "n_healthy must be an integer, got 1.5"),
    (lambda: generate(SynthConfig(), Label.HEALTHY, 2.5),
     "seed must be an integer, got 2.5"),
    (lambda: generate(SynthConfig(), Label.HEALTHY, True),
     "seed must be an integer, got True"),
    (lambda: generate_dataset(1, 1, base_seed=2.5),
     "base_seed must be an integer, got 2.5"),
    (lambda: generate_dataset(1, 1, base_seed=True),
     "base_seed must be an integer, got True"),
], ids=["half_length", "nominal", "hop", "bins", "records", "synth-seed",
        "synth-seed-bool", "base-seed", "base-seed-bool"])
def test_non_integer_count_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
