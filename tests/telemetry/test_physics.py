"""Tests for the power and thermal models."""

import numpy as np
import pytest

from repro.telemetry.config import PowerConfig, ThermalConfig
from repro.telemetry.power import PowerModel
from repro.telemetry.thermal import ThermalModel, cooling_pattern
from repro.topology.machine import Machine, MachineConfig
from repro.utils.rng import SeedSequenceFactory


@pytest.fixture()
def machine():
    return Machine(
        MachineConfig(grid_x=4, grid_y=2, cages_per_cabinet=1, slots_per_cage=2)
    )


class TestPowerModel:
    def test_idle_vs_busy(self):
        model = PowerModel(PowerConfig(), 16, SeedSequenceFactory(0))
        idle = model.sample(np.zeros(16))
        busy = model.sample(np.ones(16))
        assert busy.mean() > idle.mean() + 100

    def test_power_positive(self):
        cfg = PowerConfig(noise_watts=50.0)
        model = PowerModel(cfg, 64, SeedSequenceFactory(0))
        for _ in range(20):
            assert np.all(model.sample(np.zeros(64)) >= 1.0)

    def test_efficiency_static(self):
        model = PowerModel(PowerConfig(), 8, SeedSequenceFactory(3))
        eff = model.efficiency
        assert eff.shape == (8,)
        assert np.all(eff > 0)


class TestCoolingPattern:
    def test_saddle_corners_hot(self):
        pattern = cooling_pattern(8, 25, amplitude=3.0)
        assert pattern.shape == (8, 25)
        # Upper-left (high y, low x) and lower-right (low y, high x) warmest.
        assert pattern[-1, 0] == pattern.max()
        assert pattern[0, -1] == pytest.approx(pattern.max(), rel=0.01)
        assert np.abs(pattern).max() == pytest.approx(3.0)

    def test_zero_amplitude(self):
        assert np.allclose(cooling_pattern(4, 4, 0.0), 0.0)


class TestThermalModel:
    def test_relaxes_to_steady_state(self, machine):
        cfg = ThermalConfig(noise_celsius=0.0, neighbor_coupling=0.0)
        model = ThermalModel(cfg, machine, SeedSequenceFactory(0), tick_minutes=5.0)
        power = np.full(machine.num_nodes, 100.0)
        for _ in range(200):
            model.step(power, np.zeros(machine.num_nodes))
        expected = model.steady_state(power)
        assert np.allclose(model.gpu_temp, expected, atol=0.5)

    def test_power_raises_temperature(self, machine):
        cfg = ThermalConfig(noise_celsius=0.0)
        model = ThermalModel(cfg, machine, SeedSequenceFactory(0), tick_minutes=5.0)
        hot = np.zeros(machine.num_nodes)
        hot[:4] = 200.0
        for _ in range(50):
            model.step(hot, np.zeros(machine.num_nodes))
        assert model.gpu_temp[:4].mean() > model.gpu_temp[8:].mean() + 10

    def test_neighbor_coupling_spreads_heat(self, machine):
        cfg = ThermalConfig(noise_celsius=0.0, neighbor_coupling=0.2)
        coupled = ThermalModel(
            cfg, machine, SeedSequenceFactory(0), tick_minutes=5.0
        )
        uncoupled = ThermalModel(
            ThermalConfig(noise_celsius=0.0, neighbor_coupling=0.0),
            machine,
            SeedSequenceFactory(0),
            tick_minutes=5.0,
        )
        power = np.zeros(machine.num_nodes)
        power[0] = 200.0  # one hot node in slot 0
        for _ in range(30):
            coupled.step(power, np.zeros(machine.num_nodes))
            uncoupled.step(power, np.zeros(machine.num_nodes))
        # Node 1 shares node 0's slot and should be warmer with coupling.
        assert coupled.gpu_temp[1] > uncoupled.gpu_temp[1] + 1.0

    def test_cpu_temperature_follows_cpu_util(self, machine):
        cfg = ThermalConfig(noise_celsius=0.0)
        model = ThermalModel(cfg, machine, SeedSequenceFactory(0), tick_minutes=5.0)
        cpu = np.zeros(machine.num_nodes)
        cpu[:4] = 1.0
        for _ in range(50):
            model.step(np.zeros(machine.num_nodes), cpu)
        assert model.cpu_temp[:4].mean() > model.cpu_temp[8:].mean() + 10

    def test_cabinet_offsets_follow_pattern(self, machine):
        model = ThermalModel(
            ThermalConfig(), machine, SeedSequenceFactory(0), tick_minutes=5.0
        )
        assert model.cabinet_offset.shape == (machine.num_nodes,)
