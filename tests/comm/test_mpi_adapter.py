"""Tests for the optional mpi4py adapter (guarded-import paths)."""

import importlib.util

import pytest

from repro.comm.mpi import world_communicator
from repro.errors import CommError


def mpi_available() -> bool:
    """True when mpi4py can be imported."""
    return importlib.util.find_spec("mpi4py") is not None


class TestMPIGuards:
    def test_world_communicator_raises_without_mpi4py(self):
        if mpi_available():  # pragma: no cover - environment-dependent
            pytest.skip("mpi4py installed; adapter would succeed")
        with pytest.raises(CommError, match="mpi4py"):
            world_communicator()

    def test_executor_list_reflects_mpi(self):
        from repro.comm import spmd_available_executors

        names = spmd_available_executors()
        assert ("mpi" in names) == mpi_available()
