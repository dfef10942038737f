"""Tests for the oracle's projection step."""

import numpy as np
import pytest

from repro.errors import ValidationError
from tests.kernels.oracle import project_points


class TestProjectPoints:
    def test_matches_matmul(self, rng):
        x = rng.random((40, 8))
        a = rng.random((8, 3))
        assert np.allclose(project_points(x, a), x @ a)

    def test_preallocated_out(self, rng):
        x = rng.random((10, 4))
        a = rng.random((4, 2))
        out = np.empty((10, 2))
        result = project_points(x, a, out=out)
        assert result is out
        assert np.allclose(out, x @ a)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            project_points(rng.random((5, 3)), rng.random((4, 2)))

    def test_1d_rejected(self, rng):
        with pytest.raises(ValidationError):
            project_points(rng.random(5), rng.random((5, 2)))

    def test_projection_is_linear(self, rng):
        x1 = rng.random((10, 5))
        x2 = rng.random((10, 5))
        a = rng.random((5, 3))
        assert np.allclose(
            project_points(x1 + x2, a),
            project_points(x1, a) + project_points(x2, a),
        )
