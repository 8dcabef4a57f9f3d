"""Tests for the platform power model."""

import numpy as np
import pytest

from repro.arch.catalog import PLATFORMS
from repro.arch.power import PowerModel


def model(**over):
    base = dict(
        board_watts=6.2,
        soc_static_watts=0.8,
        core_active_watts=1.0,
        nominal_freq_ghz=1.0,
        vmin=0.825,
        vmax=1.10,
        fmin_ghz=0.456,
        fmax_ghz=1.0,
    )
    base.update(over)
    return PowerModel(**base)


class TestVoltageCurve:
    def test_endpoints(self):
        m = model()
        assert m.voltage(0.456) == pytest.approx(0.825)
        assert m.voltage(1.0) == pytest.approx(1.10)

    def test_clamped_outside_range(self):
        m = model()
        assert m.voltage(0.1) == pytest.approx(0.825)
        assert m.voltage(5.0) == pytest.approx(1.10)

    def test_monotonic(self):
        m = model()
        vs = [m.voltage(f) for f in (0.5, 0.6, 0.8, 1.0)]
        assert vs == sorted(vs)

    def test_flat_table(self):
        m = model(fmin_ghz=1.0, fmax_ghz=1.0, vmin=1.0, vmax=1.0)
        assert m.voltage(1.0) == 1.0


class TestCorePower:
    def test_nominal_point(self):
        assert model().core_power(1.0) == pytest.approx(1.0)

    def test_superlinear_in_frequency(self):
        """f * V(f)^2 scaling: doubling frequency more than doubles
        power when voltage rises with it."""
        m = model()
        assert m.core_power(1.0) > 2 * m.core_power(0.5) * 0.9
        ratio = m.core_power(1.0) / m.core_power(0.456)
        assert ratio > 1.0 / 0.456  # superlinear

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            model().core_power(0)


class TestPlatformPower:
    def test_board_dominates_at_one_core(self):
        """Section 3.1.2: 'the SoC is not the main power sink'."""
        m = model()
        total = m.platform_power(1.0, 1, 2)
        assert m.board_watts / total > 0.5

    def test_more_cores_more_power(self):
        m = model()
        assert m.platform_power(1.0, 2, 2) > m.platform_power(1.0, 1, 2)

    def test_idle_below_active(self):
        m = model()
        assert m.idle_power(1.0, 2) < m.platform_power(1.0, 2, 2)

    def test_memory_utilisation_term(self):
        m = model(mem_dynamic_watts=2.0)
        p0 = m.platform_power(1.0, 1, 2, mem_bw_utilisation=0.0)
        p1 = m.platform_power(1.0, 1, 2, mem_bw_utilisation=1.0)
        assert p1 - p0 == pytest.approx(2.0)

    def test_active_cores_validated(self):
        with pytest.raises(ValueError):
            model().platform_power(1.0, 3, 2)
        with pytest.raises(ValueError):
            model().platform_power(1.0, -1, 2)

    def test_utilisation_validated(self):
        with pytest.raises(ValueError):
            model().platform_power(1.0, 1, 2, mem_bw_utilisation=1.5)

    @pytest.mark.parametrize("name", sorted(PLATFORMS))
    def test_platform_powers_prices_each_utilisation_exactly(self, name):
        """The sweep's per-kernel powers: the frequency terms priced
        once (``frequency_watts``) plus each memory term equal the
        scalar sum, bit for bit, over the DVFS range and every split of
        active and idle cores."""
        m = PLATFORMS[name].soc.power
        utils = [0.0, 0.013, 0.5, 0.97, 1.0]
        freqs = np.linspace(m.fmin_ghz, m.fmax_ghz, 37).tolist() + [1]
        for freq in freqs:
            for total in (2, 4):
                for active in range(total + 1):
                    watts = m.frequency_watts(freq, active, total)
                    assert [
                        watts + m.mem_dynamic_watts * u for u in utils
                    ] == [
                        m.platform_power(freq, active, total, u)
                        for u in utils
                    ]
        with pytest.raises(ValueError):
            m.frequency_watts(1.0, 3, 2)


class TestEnergyEfficiencyShape:
    def test_energy_per_work_improves_with_frequency(self):
        """The paper's key observation: raising frequency improves whole-
        platform energy efficiency because board power dominates.
        Energy per unit work ~ P(f) / f must decrease with f."""
        m = model()
        e = [
            m.platform_power(f, 1, 2) / f
            for f in (0.456, 0.608, 0.760, 0.912, 1.0)
        ]
        assert all(b < a for a, b in zip(e, e[1:]))


class TestValidation:
    @pytest.mark.parametrize(
        "over",
        [
            dict(fmin_ghz=0),
            dict(fmax_ghz=0.4),  # below fmin
            dict(vmax=0.5),  # below vmin
            dict(board_watts=-1),
        ],
    )
    def test_invalid_models(self, over):
        with pytest.raises(ValueError):
            model(**over)
