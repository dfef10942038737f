"""Tests for the Ramachandran classifier."""

import numpy as np
import pytest

from repro.proteins.ramachandran import (
    REGIONS,
    SecondaryStructure,
    classify_torsions,
    region_center,
    wrap_angle,
)


class TestWrapAngle:
    def test_identity_in_range(self):
        assert wrap_angle(90.0) == 90.0
        assert wrap_angle(-90.0) == -90.0

    def test_wraps_over_180(self):
        assert wrap_angle(190.0) == pytest.approx(-170.0)
        assert wrap_angle(-190.0) == pytest.approx(170.0)

    def test_boundary(self):
        assert wrap_angle(180.0) == pytest.approx(180.0)

    def test_multiple_turns(self):
        assert wrap_angle(360.0 + 45.0) == pytest.approx(45.0)

    @staticmethod
    def _formula(angle):
        # The remainder taken everywhere.
        return -((-np.asarray(angle, dtype=np.float64) + 180.0) % 360.0 - 180.0)

    EDGES = [
        180.0, -180.0, np.nextafter(180.0, 0.0), np.nextafter(180.0, 360.0),
        np.nextafter(-180.0, 0.0), np.nextafter(-180.0, -360.0),
        181.0, -181.0, 179.0, -179.0, 540.0, -540.0, 359.999, -359.999,
        360.0, -360.0, 0.0, -0.0, 1e-300, -1e-300, 1e17, -1e17,
        np.nan, np.inf, -np.inf,
    ]

    def test_bit_identical_to_formula(self):
        rng = np.random.default_rng(0)
        arrays = [
            np.array(self.EDGES),
            rng.uniform(-180.0, 180.0, (250, 200)),
            rng.uniform(-720.0, 720.0, 1000),
            np.zeros((0, 3)),
        ]
        with np.errstate(invalid="ignore"):
            for a in arrays:
                got, want = wrap_angle(a), self._formula(a)
                assert isinstance(got, np.ndarray) and got.shape == a.shape
                np.testing.assert_array_equal(got, want)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            for v in self.EDGES:
                got, want = wrap_angle(v), self._formula(v)
                assert type(got) is type(want) is np.float64
                np.testing.assert_array_equal(got, want)
                assert got.view(np.uint64) == want.view(np.uint64)

    def test_wraps_out_of_range_differences(self):
        # rmsd and the trajectory simulator pass differences and noisy
        # interpolations well outside (−180, 180].
        a = np.array([[350.0, -350.0], [719.0, -900.5]])
        assert np.allclose(wrap_angle(a), [[-10.0, 10.0], [-1.0, 179.5]])
        b = a[:, ::-1]  # a non-contiguous view
        assert np.array_equal(wrap_angle(b), self._formula(b))


class TestClassify:
    @pytest.mark.parametrize("cls", [
        SecondaryStructure.ALPHA_HELIX,
        SecondaryStructure.BETA_STRAND,
        SecondaryStructure.PII_HELIX,
        SecondaryStructure.GAMMA_PRIME_TURN,
        SecondaryStructure.GAMMA_TURN,
        SecondaryStructure.OTHER,
    ])
    def test_region_centers_classify_to_their_class(self, cls):
        phi, psi, omega = region_center(cls)
        got = classify_torsions(np.array(phi), np.array(psi), np.array(omega))
        assert got == int(cls)

    def test_cis_peptide_overrides(self):
        phi, psi, _ = region_center(SecondaryStructure.ALPHA_HELIX)
        got = classify_torsions(np.array(phi), np.array(psi), np.array(0.0))
        assert got == int(SecondaryStructure.CIS_PEPTIDE)

    def test_trans_omega_not_cis(self):
        got = classify_torsions(np.array(60.0), np.array(30.0), np.array(180.0))
        assert got == int(SecondaryStructure.OTHER)

    def test_vectorized_shapes(self, rng):
        phi = rng.uniform(-180, 180, (10, 5))
        psi = rng.uniform(-180, 180, (10, 5))
        omega = np.full((10, 5), 180.0)
        out = classify_torsions(phi, psi, omega)
        assert out.shape == (10, 5)
        assert out.dtype == np.int8

    def test_all_classes_reachable(self, rng):
        phi = rng.uniform(-180, 180, 50_000)
        psi = rng.uniform(-180, 180, 50_000)
        omega = rng.choice([0.0, 180.0], 50_000, p=[0.1, 0.9])
        out = classify_torsions(phi, psi, omega)
        assert set(np.unique(out)) == set(int(c) for c in SecondaryStructure)

    def test_noise_robustness_at_centers(self, rng):
        """±8° jitter around any region centre must keep the class almost
        always (the property the trajectory simulator relies on)."""
        for cls in (
            SecondaryStructure.ALPHA_HELIX,
            SecondaryStructure.BETA_STRAND,
            SecondaryStructure.GAMMA_TURN,
            SecondaryStructure.OTHER,
        ):
            phi, psi, omega = region_center(cls)
            n = 2000
            got = classify_torsions(
                phi + rng.normal(0, 8, n),
                psi + rng.normal(0, 8, n),
                omega + rng.normal(0, 8, n),
            )
            assert np.mean(got == int(cls)) > 0.9

    def test_regions_disjoint(self):
        """No (φ, ψ) cell may satisfy two region rectangles at once after
        the priority ordering — sample a fine grid and check stability."""
        phis = np.linspace(-179, 179, 180)
        psis = np.linspace(-179, 179, 180)
        grid_phi, grid_psi = np.meshgrid(phis, psis)
        out1 = classify_torsions(grid_phi, grid_psi, np.full_like(grid_phi, 180.0))
        out2 = classify_torsions(grid_phi, grid_psi, np.full_like(grid_phi, 180.0))
        assert np.array_equal(out1, out2)

    def test_wrapped_input_equivalent(self):
        a = classify_torsions(np.array(-65.0), np.array(-40.0), np.array(180.0))
        b = classify_torsions(np.array(-65.0 + 360), np.array(-40.0 - 360),
                              np.array(180.0 + 720))
        assert a == b
