"""Property-based invariants of the telemetry substrate (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.config import ErrorModelConfig
from repro.telemetry.errors import SbeErrorModel
from repro.telemetry.noise import NOISE_BLOCK, RowNoise
from repro.telemetry.sampler import VectorWelford, WindowHistory
from repro.topology.machine import Machine, MachineConfig
from repro.topology.sharding import plan_shards
from repro.utils.rng import SeedSequenceFactory


class TestWelfordProperties:
    @given(
        st.lists(
            st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_for_any_sequence(self, ticks):
        series = np.asarray(ticks)  # (t, 3 nodes)
        wf = VectorWelford(3)
        for row in series:
            wf.update(np.tile(row, (5, 1)))
        stats = wf.stats(np.arange(3))
        assert np.allclose(stats[0], series.mean(axis=0), atol=1e-8)
        assert np.allclose(stats[1], series.std(axis=0), atol=1e-6)

    @given(st.integers(1, 20), st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_reset_then_update_counts_from_zero(self, n_ticks, seed):
        rng = np.random.default_rng(seed)
        wf = VectorWelford(2)
        for _ in range(n_ticks):
            wf.update(rng.normal(size=(5, 2)))
        wf.reset(np.array([0, 1]))
        value = rng.normal(size=(5, 2))
        wf.update(value)
        stats = wf.stats(np.arange(2))
        assert np.allclose(stats[0::4], value)
        assert np.allclose(stats[1::4], 0.0)


class TestHistoryRingProperties:
    @given(st.integers(1, 8), st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_window_mean_matches_suffix(self, capacity, values):
        out = np.zeros((8, 1))
        k = min(capacity, len(values))
        history = WindowHistory(1, capacity, (k,), out)
        for v in values:
            history.push(np.array([[v], [v]]))
        history.queue(0, np.array([0]))
        history.flush()
        suffix = np.asarray(values[-k:])
        assert out[0, 0] == pytest.approx(suffix.mean(), abs=1e-9)


_NOISE_MACHINE = MachineConfig(
    grid_x=2, grid_y=4, cages_per_cabinet=1, slots_per_cage=1, nodes_per_slot=3
)


def per_call_noise(seeds, rows, row_nodes, scale, calls):
    """The one-call-per-tick draw: each row stream, ``calls`` times."""
    rngs = [seeds.generator("noise", row) for row in rows]
    return np.stack(
        [
            np.concatenate([rng.normal(0.0, scale, row_nodes) for rng in rngs])
            for _ in range(calls)
        ]
    )


class TestRowNoiseProperties:
    """Block-drawn row noise == one ``rng.normal`` per row per call."""

    @given(st.integers(1, 3 * NOISE_BLOCK + 5), st.floats(0.0, 5.0))
    @settings(max_examples=15, deadline=None)
    def test_one_row_matches_per_call_draws(self, calls, scale):
        config = MachineConfig(
            grid_x=2, grid_y=1, cages_per_cabinet=1, slots_per_cage=1, nodes_per_slot=3
        )
        noise = RowNoise(SeedSequenceFactory(5), "noise", config, None, scale)
        drawn = np.stack([noise.normal() for _ in range(calls)])
        expected = per_call_noise(SeedSequenceFactory(5), [0], 6, scale, calls)
        assert np.array_equal(drawn, expected)

    @given(st.integers(1, 3 * NOISE_BLOCK + 5))
    @settings(max_examples=10, deadline=None)
    def test_several_rows_match_per_call_draws(self, calls):
        noise = RowNoise(SeedSequenceFactory(9), "noise", _NOISE_MACHINE, None, 0.7)
        drawn = np.stack([noise.normal() for _ in range(calls)])
        expected = per_call_noise(SeedSequenceFactory(9), range(4), 6, 0.7, calls)
        assert np.array_equal(drawn, expected)

    @given(st.integers(1, 2 * NOISE_BLOCK + 3))
    @settings(max_examples=10, deadline=None)
    def test_sub_span_matches_its_slice_of_the_full_span(self, calls):
        full = RowNoise(SeedSequenceFactory(2), "noise", _NOISE_MACHINE, None, 1.5)
        full_draws = np.stack([full.normal() for _ in range(calls)])
        for span in plan_shards(_NOISE_MACHINE, 3):
            noise = RowNoise(SeedSequenceFactory(2), "noise", _NOISE_MACHINE, span, 1.5)
            drawn = np.stack([noise.normal() for _ in range(calls)])
            assert np.array_equal(drawn, full_draws[:, span.lo : span.hi])

    def test_rows_handed_out_stay_valid_across_blocks(self):
        noise = RowNoise(SeedSequenceFactory(1), "noise", _NOISE_MACHINE, None, 1.0)
        first = noise.normal()
        kept = first.copy()
        for _ in range(2 * NOISE_BLOCK):
            noise.normal()
        assert np.array_equal(first, kept)


_MODEL = SbeErrorModel(
    ErrorModelConfig(),
    Machine(MachineConfig(grid_x=4, grid_y=2, cages_per_cabinet=1)),
    SeedSequenceFactory(3),
    num_days=20,
)


class TestErrorModelProperties:
    @property
    def model(self):
        return _MODEL

    @given(st.floats(20, 60), st.floats(30, 200), st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_rates_always_nonnegative_finite(self, temp, power, mem):
        model = self.model
        nodes = np.arange(8)
        lam = model.rate(
            nodes, 1.0, 0.0, 120.0, np.full(8, temp), np.full(8, power), mem
        )
        assert np.all(lam >= 0)
        assert np.isfinite(lam).all()

    @given(st.floats(0.1, 5.0), st.floats(5.1, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_rate_monotone_in_app_susceptibility(self, low, high):
        model = self.model
        nodes = np.arange(4)
        args = (0.0, 120.0, np.full(4, 35.0), np.full(4, 90.0), 0.5)
        assert np.all(model.rate(nodes, low, *args) <= model.rate(nodes, high, *args))
