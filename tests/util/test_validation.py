"""Tests for repro.util.validation."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.util.validation import check_array_2d, check_finite


class TestCheckArray2D:
    def test_passthrough(self):
        x = np.zeros((3, 2))
        out = check_array_2d(x)
        assert out.shape == (3, 2)

    def test_1d_promoted_to_column(self):
        out = check_array_2d(np.arange(4))
        assert out.shape == (4, 1)

    def test_3d_rejected(self):
        with pytest.raises(ValidationError):
            check_array_2d(np.zeros((2, 2, 2)))

    def test_min_rows_enforced(self):
        with pytest.raises(ValidationError, match="row"):
            check_array_2d(np.zeros((1, 3)), min_rows=2)

    def test_min_cols_enforced(self):
        with pytest.raises(ValidationError, match="column"):
            check_array_2d(np.zeros((3, 0)))

    def test_contiguous_float64_output(self):
        x = np.asfortranarray(np.ones((4, 3), dtype=np.float32))
        out = check_array_2d(x)
        assert out.flags["C_CONTIGUOUS"]
        assert out.dtype == np.float64

    def test_list_input_accepted(self):
        out = check_array_2d([[1, 2], [3, 4]])
        assert out.shape == (2, 2)


class TestCheckFinite:
    def test_ok(self):
        x = np.ones(3)
        assert check_finite(x) is x

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            check_finite(np.array([1.0, np.nan]))

    def test_inf_rejected(self):
        with pytest.raises(ValidationError):
            check_finite(np.array([np.inf, 1.0]))
