"""Gaussian pair and piecewise-constant schedule behavior."""

import math

import numpy as np
import pytest

from usctransfer import (
    GaussianPair,
    PiecewiseConstantSchedule,
    clamp_schedule,
    effective_duration,
    integration_window,
)

PAIR = GaussianPair(g0=0.3, T=25.0, tau=15.0)


class TestGaussianPair:
    def test_peak_value(self):
        np.testing.assert_allclose(PAIR.values(PAIR.tau)[0], PAIR.g0)

    def test_one_width_from_peak(self):
        np.testing.assert_allclose(
            PAIR.values(PAIR.tau + PAIR.T)[0], PAIR.g0 * math.exp(-1)
        )

    def test_mirror_symmetry(self):
        for t in np.linspace(-80, 80, 41):
            np.testing.assert_allclose(
                PAIR.values(t)[0], PAIR.values(-t)[1], rtol=1e-14
            )

    def test_counterintuitive_order(self):
        # early on, the target-side pulse dominates
        g1, g2 = PAIR.values(-PAIR.tau)
        assert g2 > g1

    def test_values_bounded_and_monotone_from_peak(self):
        ts = PAIR.tau + np.linspace(0.0, 4 * PAIR.T, 100)
        vals = np.array([PAIR.values(t)[0] for t in ts])
        assert vals.max() <= PAIR.g0 and vals.min() > 0
        assert np.all(np.diff(vals) < 0)

    def test_zero_peak_allowed(self):
        assert GaussianPair(g0=0.0, T=1.0, tau=0.0).values(0.3) == (0.0, 0.0)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            GaussianPair(g0=0.1, T=-1.0, tau=0.0)


def make_schedule(**kwargs):
    defaults = dict(
        t_start=1.0,
        dt=0.5,
        values1=[0.1, 0.2, 0.3],
        values2=[0.3, 0.2, 0.1],
        bounds=(0.0, 0.3),
    )
    defaults.update(kwargs)
    return PiecewiseConstantSchedule(**defaults)


class TestPiecewiseSchedule:
    def test_first_bin_left_closed(self):
        sched = make_schedule()
        assert sched.values(sched.t_start)[0] == 0.1

    def test_bin_arithmetic(self):
        sched = make_schedule()
        assert sched.values(sched.t_start + 1.5 * sched.dt)[0] == 0.2

    def test_final_instant_maps_to_last_bin(self):
        sched = make_schedule()
        assert sched.values(sched.t_end)[0] == 0.3

    def test_outside_window_zero_hold(self):
        sched = make_schedule()
        assert sched.values(sched.t_start - 1.0)[0] == 0.0
        assert sched.values(sched.t_end + 1.0)[1] == 0.0

    def test_outside_window_edge_hold(self):
        sched = make_schedule(outside="edge")
        assert sched.values(sched.t_start - 1.0)[0] == 0.1
        assert sched.values(sched.t_end + 1.0)[0] == 0.3

    def test_piecewise_constant_within_bins(self):
        sched = make_schedule()
        for k in range(sched.bins):
            left = sched.t_start + k * sched.dt
            for frac in (0.0, 0.25, 0.999):
                assert sched.values(left + frac * sched.dt)[1] == sched.values2[k]

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            make_schedule(values1=[], values2=[])

    def test_stacked_roundtrip(self):
        sched = make_schedule()
        again = sched.with_values(sched.stacked())
        np.testing.assert_array_equal(again.values1, sched.values1)
        np.testing.assert_array_equal(again.values2, sched.values2)


class TestClamp:
    def test_upper_projection(self):
        sched = PiecewiseConstantSchedule(0.0, 1.0, [0.35], [0.1], (0.0, 0.3))
        assert clamp_schedule(sched).values1[0] == 0.3

    def test_lower_projection(self):
        sched = PiecewiseConstantSchedule(0.0, 1.0, [-0.05], [0.1], (0.0, 0.3))
        assert clamp_schedule(sched).values1[0] == 0.0

    def test_in_bounds_unchanged(self):
        sched = make_schedule()
        clamped = clamp_schedule(sched)
        np.testing.assert_array_equal(clamped.values1, sched.values1)
        np.testing.assert_array_equal(clamped.values2, sched.values2)

    def test_idempotent(self):
        sched = PiecewiseConstantSchedule(0.0, 1.0, [0.7, -0.2], [0.15, 0.05], (0.0, 0.3))
        once = clamp_schedule(sched)
        twice = clamp_schedule(once)
        np.testing.assert_array_equal(once.values1, twice.values1)
        np.testing.assert_array_equal(once.values2, twice.values2)


class TestIntegrationWindow:
    def test_invert_gaussian_at_one_width(self):
        pair = GaussianPair(g0=0.3, T=2.0, tau=0.0)
        np.testing.assert_allclose(integration_window(pair, math.exp(-1)), (-2.0, 2.0))

    def test_closed_form_inversion(self):
        pair = GaussianPair(g0=0.3, T=1.0, tau=1.0)
        _, t_end = integration_window(pair, 1e-4)
        np.testing.assert_allclose(t_end, 1.0 + math.sqrt(math.log(1e4)))
        np.testing.assert_allclose(t_end, 4.035, atol=5e-4)

    def test_symmetric(self):
        t_begin, t_end = integration_window(PAIR)
        assert t_begin == -t_end

    def test_pulses_below_cutoff_outside(self):
        cutoff = 1e-4
        t_begin, t_end = integration_window(PAIR, cutoff)
        for t in (t_begin - 0.01, t_end + 0.01):
            g1, g2 = PAIR.values(t)
            assert max(g1, g2) < cutoff * PAIR.g0

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ValueError):
            integration_window(PAIR, 1.5)


class TestEffectiveDuration:
    def test_default_threshold(self):
        np.testing.assert_allclose(effective_duration(PAIR), 2 * PAIR.tau + 2 * PAIR.T)

    def test_scales_with_threshold(self):
        assert effective_duration(PAIR, 0.1) > effective_duration(PAIR, 0.5)
