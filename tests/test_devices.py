"""Tests for the benchmark devices: geometry, calibration, powers, adjoint."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.devices import (
    DEVICE_REGISTRY,
    OpticalIsolator,
    WaveguideBend,
    WaveguideCrossing,
    make_device,
)
from repro.fdfd import SimulationWorkspace
from repro.fdfd.adjoint import PortSpec
from repro.params import rasterize_segments


@pytest.fixture(scope="module")
def bend():
    return WaveguideBend()


@pytest.fixture(scope="module")
def crossing():
    return WaveguideCrossing()


@pytest.fixture(scope="module")
def isolator():
    return OpticalIsolator()


def path_pattern(device):
    return rasterize_segments(
        device.design_shape, device.dl, device.init_segments()
    )


class TestRegistry:
    def test_all_devices_present(self):
        assert set(DEVICE_REGISTRY) == {
            "bending", "crossing", "isolator", "demux",
        }

    def test_make_device(self):
        assert isinstance(make_device("bending"), WaveguideBend)

    def test_unknown_device(self):
        with pytest.raises(ValueError):
            make_device("splitter")


class TestGeometry:
    @pytest.mark.parametrize("name", ["bending", "crossing", "isolator"])
    def test_design_region_inside_grid(self, name):
        dev = make_device(name)
        sx, sy = dev.design_slice
        assert 0 < sx.start < sx.stop <= dev.grid.nx
        assert 0 < sy.start < sy.stop <= dev.grid.ny
        expected = (48, 32) if name == "isolator" else (32, 32)
        assert dev.design_shape == expected

    @pytest.mark.parametrize("name", ["bending", "crossing", "isolator"])
    def test_background_zero_in_design_window(self, name):
        dev = make_device(name)
        bg = dev.cached_background()
        assert np.all(bg[dev.design_slice] == 0)

    def test_bend_has_two_arms(self, bend):
        bg = bend.cached_background()
        # Horizontal arm west of the design region.
        assert bg[5, bend.grid.ny // 2] == 1.0
        # Vertical arm south of the design region.
        assert bg[bend.grid.nx // 2, 5] == 1.0
        # No arm east.
        assert bg[bend.grid.nx - 5, bend.grid.ny // 2] == 0.0

    def test_crossing_has_four_arms(self, crossing):
        bg = crossing.cached_background()
        c = crossing.grid.nx // 2
        for probe in [(5, c), (crossing.grid.nx - 5, c), (c, 5), (c, crossing.grid.ny - 5)]:
            assert bg[probe] == 1.0

    def test_isolator_asymmetric_guides(self, isolator):
        bg = isolator.cached_background()
        cy = isolator.grid.index_of_y(isolator.centre_y_um)
        west_width = bg[5, :].sum()
        east_width = bg[isolator.grid.nx - 5, :].sum()
        assert east_width > west_width  # wide output guide
        assert bg[5, cy] == 1.0 and bg[isolator.grid.nx - 5, cy] == 1.0

    def test_litho_context_contains_waveguides(self, bend):
        pad = 12
        tile = bend.litho_context(pad)
        nx, ny = bend.design_shape
        assert tile.shape == (nx + 2 * pad, ny + 2 * pad)
        # Zero inside the design window.
        assert np.all(tile[pad : pad + nx, pad : pad + ny] == 0)
        # Waveguide enters from the west collar at mid height.
        assert tile[: pad, :].max() == 1.0


class TestCalibration:
    @pytest.mark.parametrize("name", ["bending", "crossing", "isolator"])
    def test_positive_input_power(self, name):
        dev = make_device(name)
        for d in dev.directions:
            _, p_in, incident = dev.calibration(d)
            assert p_in > 0
            assert incident.shape == dev.grid.shape

    def test_calibration_cached(self, bend):
        a = bend.calibration("fwd")
        b = bend.calibration("fwd")
        assert a is b

    def test_calibration_per_alpha(self, bend):
        a = bend.calibration("fwd", 1.0)
        b = bend.calibration("fwd", 1.01)
        assert a is not b


class TestPortPowers:
    def test_energy_conservation(self, crossing):
        """Monitored + radiated power accounts for roughly unity."""
        pattern = path_pattern(crossing)
        powers = crossing.port_powers_array(pattern, "fwd")
        total = sum(powers.values())
        assert 0.6 < total <= 1.1

    def test_empty_design_blocks_bend(self, bend):
        powers = bend.port_powers_array(np.zeros(bend.design_shape), "fwd")
        assert powers["out"] < 0.05

    def test_path_init_guides_crossing(self, crossing):
        powers = crossing.port_powers_array(path_pattern(crossing), "fwd")
        assert powers["out"] > 0.5

    def test_isolator_bowed_taper_guides_power(self, isolator):
        powers = isolator.port_powers_array(path_pattern(isolator), "fwd")
        # The S-bowed init keeps light concentrated toward the output
        # (low reflection, substantial guided power) while already
        # seeding TM1 -> TM3 conversion.
        guided = powers["trans1"] + powers["trans3"]
        assert guided > 0.3
        assert powers["refl"] < 0.1

    def test_isolator_straight_taper_passes_tm1(self):
        """With the bow disabled, a straight taper keeps TM1 as TM1."""
        iso = OpticalIsolator()
        iso.init_bow_um = 0.0
        powers = iso.port_powers_array(path_pattern(iso), "fwd")
        assert powers["trans1"] > 0.8
        assert powers["trans3"] < 0.1

    def test_isolator_fom_lower_better(self, isolator):
        pattern = path_pattern(isolator)
        powers = {
            d: isolator.port_powers_array(pattern, d)
            for d in isolator.directions
        }
        fom = isolator.fom(powers)
        e_fwd, e_bwd = isolator.transmissions(powers)
        assert fom == pytest.approx(e_bwd / max(e_fwd, isolator.fwd_floor))
        assert isolator.fom_lower_is_better

    def test_unknown_direction_raises(self, bend):
        with pytest.raises(ValueError):
            bend.port_powers(
                Tensor(np.zeros(bend.design_shape)), "sideways"
            )

    def test_design_shape_validated(self, bend):
        with pytest.raises(ValueError):
            bend.port_powers(Tensor(np.zeros((8, 8))), "fwd")


class TestDeviceAdjoint:
    """End-to-end gradient through device.port_powers custom op."""

    def test_grad_matches_fd(self, bend):
        pattern = path_pattern(bend)
        rho = Tensor(pattern.copy(), requires_grad=True)
        powers = bend.port_powers(rho, "fwd")
        powers["out"].backward()
        grad = rho.grad
        assert grad is not None

        cell = (16, 20)
        d = 1e-4
        for sign in (1,):
            pert = pattern.copy()
            pert[cell] += d
            p_plus = bend.port_powers_array(pert, "fwd")["out"]
            pert[cell] -= 2 * d
            p_minus = bend.port_powers_array(pert, "fwd")["out"]
            fd = (p_plus - p_minus) / (2 * d)
        assert grad[cell] == pytest.approx(fd, rel=5e-2, abs=1e-9)

    def test_grad_shared_across_ports(self, crossing):
        """Backward through a sum of ports needs only one adjoint (smoke:
        gradients exist and differ per port weighting)."""
        pattern = path_pattern(crossing)
        rho1 = Tensor(pattern.copy(), requires_grad=True)
        p1 = crossing.port_powers(rho1, "fwd")
        (p1["out"] + p1["xtalk_n"]).backward()
        rho2 = Tensor(pattern.copy(), requires_grad=True)
        p2 = crossing.port_powers(rho2, "fwd")
        p2["out"].backward()
        assert not np.allclose(rho1.grad, rho2.grad)


def _weighted_total(powers, weights):
    total = None
    for name, value in powers.items():
        term = value * weights[name]
        total = term if total is None else total + term
    return total


class TestOnePowerOp:
    """Every public power entry point is a view of the same custom op."""

    @pytest.mark.parametrize("alpha", [1.0, 1.0127])
    @pytest.mark.parametrize("name", ["bending", "crossing", "isolator"])
    def test_entry_points_agree_bitwise(self, name, alpha):
        device = make_device(name)
        device.configure_simulation_cache(True, SimulationWorkspace())
        rho = path_pattern(device) * alpha
        rng = np.random.default_rng(3)
        for direction in device.directions:
            weights = {
                n: float(rng.uniform(0.5, 1.5))
                for n in device.port_names(direction)
            }
            views = {
                "direction": lambda t: device.port_powers(
                    t, direction, alpha
                ),
                "all": lambda t: device.port_powers_all(t, alpha)[direction],
                "corners": lambda t: device.port_powers_corners(
                    [t], [alpha]
                )[0][direction],
            }
            results = {}
            for key, view in views.items():
                t = Tensor(rho.copy(), requires_grad=True)
                powers = view(t)
                _weighted_total(powers, weights).backward()
                results[key] = (
                    {n: p.item() for n, p in powers.items()}, t.grad
                )
            ref_powers, ref_grad = results["direction"]
            for key in ("all", "corners"):
                powers, grad = results[key]
                assert powers == ref_powers, (key, direction)
                assert np.array_equal(grad, ref_grad), (key, direction)
            values = device.port_powers_array_all(rho, alpha)[direction]
            assert values == ref_powers

    def test_port_inside_design_window_refused(self):
        class CutBend(WaveguideBend):
            def monitor_ports(self, direction):
                ports = super().monitor_ports(direction)
                c = self.centre_um
                return [PortSpec("probe", "y", c, c, 0.4), *ports[1:]]

        device = CutBend()
        with pytest.raises(ValueError, match="port 'probe' crosses"):
            device.port_powers_array(np.zeros(device.design_shape), "fwd")


class TestObjectiveTerms:
    @pytest.mark.parametrize("name", ["bending", "crossing", "isolator"])
    def test_terms_reference_real_ports(self, name):
        dev = make_device(name)
        terms = dev.objective_terms()
        valid = {
            d: set(dev.port_names(d)) | {"__radiation__"}
            for d in dev.directions
        }
        for spec in terms.get("penalties", ()):
            assert spec["port"] in valid[spec["direction"]]
        main = terms["main"]
        if main["kind"] == "contrast":
            for dir_, port in (main["num"], main["den"]):
                assert port in valid[dir_]
        else:
            assert main["port"] in valid[main["direction"]]

    def test_isolator_dense_terms_match_paper(self, isolator):
        """fwd transmission >= 0.8, reflection <= 0.1, bwd radiation >= 0.9."""
        terms = isolator.objective_terms()
        by_port = {
            (p["direction"], p["port"]): p for p in terms["penalties"]
        }
        assert by_port[("fwd", "trans3")]["bound"] == 0.8
        assert by_port[("fwd", "trans3")]["side"] == "lower"
        assert by_port[("fwd", "refl")]["bound"] == 0.1
        assert by_port[("bwd", "__radiation__")]["bound"] == 0.9
        assert by_port[("bwd", "__radiation__")]["side"] == "lower"
