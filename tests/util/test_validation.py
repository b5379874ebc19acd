import numpy as np
import pytest

from repro.util import (
    ConfigurationError,
    check_in,
    check_integer,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_passes_through_positive(self):
        assert check_positive("x", 3.5) == 3.5

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="x must be > 0"):
            check_positive("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", -1)

    def test_is_a_value_error(self):
        with pytest.raises(ValueError):
            check_positive("x", -1)


class TestCheckInteger:
    def test_returns_a_plain_int(self):
        value = check_integer("x", np.int64(4), 1)
        assert value == 4 and type(value) is int

    def test_accepts_the_minimum(self):
        assert check_integer("x", 0, 0) == 0

    @pytest.mark.parametrize("value", [0.5, 1.5, 2.0, True, "2", None])
    def test_refuses_what_int_would_truncate(self, value):
        with pytest.raises(ConfigurationError, match=r"x must be an integer >= 1"):
            check_integer("x", value, 1)

    def test_refuses_below_the_minimum(self):
        with pytest.raises(ConfigurationError, match=r"x must be an integer >= 1, got 0"):
            check_integer("x", 0, 1)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            check_non_negative("x", -0.001)

    def test_rejects_nan_like_check_positive(self):
        for check in (check_non_negative, check_positive):
            with pytest.raises(ConfigurationError, match="got nan"):
                check("x", float("nan"))


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5])
    def test_rejects_outside(self, value):
        with pytest.raises(ConfigurationError):
            check_probability("p", value)


class TestCheckIn:
    def test_accepts_member(self):
        assert check_in("mode", "a", ("a", "b")) == "a"

    def test_rejects_non_member(self):
        with pytest.raises(ConfigurationError, match="mode must be one of"):
            check_in("mode", "c", ("a", "b"))
