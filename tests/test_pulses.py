"""Gaussian pair and piecewise-constant schedule behavior."""

import math

import numpy as np
import pytest

from usctransfer import (
    GaussianPair,
    PiecewiseConstantSchedule,
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

    @pytest.mark.parametrize("g0, maxulp", [(1.0, 1), (0.3, 2)])
    def test_array_values_match_scalar_formula(self, g0, maxulp):
        # np.exp is within 1 ulp of math.exp; a peak g0 other than 1 rounds
        # the product once more on each side
        pair = GaussianPair(g0=g0, T=25.0, tau=15.0)
        ts = np.concatenate([np.linspace(-120.0, 120.0, 2001), [-pair.tau, pair.tau, 0.0]])
        g1, g2 = pair.values(ts.reshape(4, -1))
        assert g1.shape == g2.shape == (4, ts.size // 4)
        for got, shift in ((g1, -pair.tau), (g2, pair.tau)):
            want = np.array([g0 * math.exp(-((t + shift) / pair.T) * ((t + shift) / pair.T)) for t in ts])
            np.testing.assert_array_max_ulp(got.ravel(), want, maxulp=maxulp)

    def test_zero_peak_allowed(self):
        assert GaussianPair(g0=0.0, T=1.0, tau=0.0).values(0.3) == (0.0, 0.0)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            GaussianPair(g0=0.1, T=-1.0, tau=0.0)

    @pytest.mark.parametrize(
        "field, bad",
        [("g0", math.nan), ("g0", math.inf), ("T", math.inf), ("T", math.nan), ("tau", math.nan), ("tau", math.inf)],
    )
    def test_non_finite_field_named(self, field, bad):
        with pytest.raises(ValueError, match=f" {field} must be finite"):
            GaussianPair(**{"g0": 0.3, "T": 25.0, "tau": 15.0, field: bad})


def make_schedule(**kwargs):
    defaults = dict(
        t_start=1.0,
        dt=0.5,
        values1=[0.1, 0.2, 0.3],
        values2=[0.3, 0.2, 0.1],
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

    def test_piecewise_constant_within_bins(self):
        sched = make_schedule()
        for k in range(sched.bins):
            left = sched.t_start + k * sched.dt
            for frac in (0.0, 0.25, 0.999):
                assert sched.values(left + frac * sched.dt)[1] == sched.values2[k]

    def test_array_values_match_scalar_bin_lookup(self):
        # scalar oracle: left-closed bins, t_end in the last bin, zero outside;
        # 0.3 + k 0.1 rounds off several edges, so each edge is read at +-1 ulp
        sched = make_schedule(t_start=0.3, dt=0.1, values1=np.arange(1.0, 8.0), values2=-np.arange(1.0, 8.0))

        def scalar(t):
            if t < sched.t_start or t > sched.t_end:
                return 0.0, 0.0
            k = min(int(math.floor((t - sched.t_start) / sched.dt)), sched.bins - 1)
            return float(sched.values1[k]), float(sched.values2[k])

        edges = sched.t_start + sched.dt * np.arange(sched.bins + 1)
        ts = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [sched.t_start, sched.t_end, sched.t_start - 1.0, sched.t_end + 1.0, -1e300, 1e300],
        ])
        got = np.column_stack(sched.values(ts))
        np.testing.assert_array_equal(got, [scalar(t) for t in ts])
        assert [g.shape for g in sched.values(ts.reshape(2, -1))] == [(2, ts.size // 2)] * 2

    def test_infinite_time_is_outside_window(self):
        sched = make_schedule()
        g1, g2 = sched.values(np.array([-np.inf, np.inf]))
        np.testing.assert_array_equal(g1, 0.0)
        np.testing.assert_array_equal(g2, 0.0)

    @pytest.mark.parametrize("t", [math.nan, [0.5, math.nan]], ids=["scalar", "array"])
    def test_nan_time_rejected(self, t):
        with pytest.raises(ValueError, match="time nan"):
            make_schedule().values(t)

    @pytest.mark.parametrize("field, bad", [("values1", math.nan), ("values2", -math.inf)])
    def test_non_finite_coupling_names_field_and_bin(self, field, bad):
        values = [0.1, 0.2, 0.3]
        values[1] = bad
        with pytest.raises(ValueError, match=f"{field} has a non-finite coupling in bin 1"):
            make_schedule(**{field: values})

    @pytest.mark.parametrize(
        "field, bad",
        [("t_start", math.nan), ("t_start", math.inf), ("t_start", -math.inf), ("dt", math.inf), ("dt", math.nan)],
    )
    def test_non_finite_grid_named(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_schedule(**{field: bad})

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            make_schedule(values1=[], values2=[])

    def test_stacked_roundtrip(self):
        sched = make_schedule()
        again = sched.with_values(sched.stacked())
        np.testing.assert_array_equal(again.values1, sched.values1)
        np.testing.assert_array_equal(again.values2, sched.values2)


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
