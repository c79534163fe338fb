"""Tests for repro.net.bandwidth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection.harness import CollectionConfig
from repro.net.bandwidth import (
    BandwidthTrace,
    TraceFamily,
    fcc_trace,
    generate_trace,
    hsdpa_trace,
    lte_trace,
)


def make_trace(times, bws, duration, family=TraceFamily.FCC):
    return BandwidthTrace(
        times=np.asarray(times, dtype=float),
        bandwidth_bps=np.asarray(bws, dtype=float),
        duration=duration,
        family=family,
    )


class TestBandwidthTraceValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            make_trace([0.0, 1.0], [1e6], 2.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_trace([], [], 1.0)

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            make_trace([1.0], [1e6], 2.0)

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            make_trace([0.0, 2.0, 2.0], [1e6, 2e6, 3e6], 3.0)

    def test_rejects_duration_not_past_last_interval(self):
        with pytest.raises(ValueError):
            make_trace([0.0, 1.0], [1e6, 2e6], 1.0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            make_trace([0.0], [0.0], 1.0)


class TestBandwidthTraceQueries:
    def test_bandwidth_at_within_intervals(self):
        tr = make_trace([0.0, 1.0, 2.0], [1e6, 2e6, 4e6], 3.0)
        assert tr.bandwidth_at(0.5) == 1e6
        assert tr.bandwidth_at(1.0) == 2e6
        assert tr.bandwidth_at(2.9) == 4e6

    def test_bandwidth_at_cycles(self):
        tr = make_trace([0.0, 1.0], [1e6, 2e6], 2.0)
        assert tr.bandwidth_at(2.5) == 1e6
        assert tr.bandwidth_at(3.5) == 2e6

    def test_bandwidth_at_rejects_negative_time(self):
        tr = make_trace([0.0], [1e6], 1.0)
        with pytest.raises(ValueError):
            tr.bandwidth_at(-0.1)

    def test_mean_bps(self):
        tr = make_trace([0.0, 1.0], [1e6, 3e6], 2.0)
        assert tr.mean_bps == pytest.approx(2e6)

    def test_bits_between_single_interval(self):
        tr = make_trace([0.0], [8e6], 10.0)
        assert tr.bits_between(1.0, 3.0) == pytest.approx(16e6)

    def test_bits_between_spanning_intervals(self):
        tr = make_trace([0.0, 1.0], [1e6, 2e6], 2.0)
        assert tr.bits_between(0.5, 1.5) == pytest.approx(0.5e6 + 1e6)

    def test_bits_between_spanning_cycles(self):
        tr = make_trace([0.0, 1.0], [1e6, 2e6], 2.0)
        # Full cycle = 3e6 bits; two cycles plus half of first interval.
        assert tr.bits_between(0.0, 4.5) == pytest.approx(6e6 + 0.5e6)

    def test_bits_between_rejects_reversed(self):
        tr = make_trace([0.0], [1e6], 1.0)
        with pytest.raises(ValueError):
            tr.bits_between(2.0, 1.0)

    def test_time_to_deliver_constant_rate(self):
        tr = make_trace([0.0], [8e6], 10.0)
        assert tr.time_to_deliver(0.0, 8e6) == pytest.approx(1.0)

    def test_time_to_deliver_zero(self):
        tr = make_trace([0.0], [8e6], 10.0)
        assert tr.time_to_deliver(3.3, 0.0) == 0.0

    def test_time_to_deliver_rejects_negative(self):
        tr = make_trace([0.0], [8e6], 10.0)
        with pytest.raises(ValueError):
            tr.time_to_deliver(0.0, -1.0)

    @pytest.mark.parametrize("t0", [-0.5, -1e-300, float("nan"), float("inf")])
    def test_time_to_deliver_rejects_bad_start(self, t0):
        # Was: -0.5 returned 0.5 and NaN returned NaN, silently.
        tr = make_trace([0.0, 1.0], [1e6, 2e6], 2.0)
        with pytest.raises(ValueError, match="t0"):
            tr.time_to_deliver(t0, 1e6)
        with pytest.raises(ValueError, match="t0"):
            tr.time_to_deliver(t0, 0.0)

    @pytest.mark.parametrize("nbits", [float("nan"), float("inf"), -1e-300])
    def test_time_to_deliver_rejects_bad_nbits(self, nbits):
        # Was: inf returned NaN with a numpy RuntimeWarning.
        tr = make_trace([0.0, 1.0], [1e6, 2e6], 2.0)
        with pytest.raises(ValueError, match="nbits"):
            tr.time_to_deliver(0.0, nbits)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -0.5])
    def test_bandwidth_at_rejects_non_finite_time(self, t):
        # Was: NaN silently returned the last interval's rate.
        tr = make_trace([0.0, 1.0], [1e6, 2e6], 2.0)
        with pytest.raises(ValueError, match="t must be"):
            tr.bandwidth_at(t)

    @pytest.mark.parametrize(
        "t0,t1,name",
        [
            (float("nan"), 1.0, "t0"),
            (-0.5, 1.0, "t0"),
            (0.0, float("nan"), "t1"),
            (0.0, float("inf"), "t1"),
            (1.0, 0.5, "t1"),
        ],
    )
    def test_bits_between_names_the_bad_bound(self, t0, t1, name):
        tr = make_trace([0.0, 1.0], [1e6, 2e6], 2.0)
        with pytest.raises(ValueError, match=name):
            tr.bits_between(t0, t1)

    def test_time_zero_is_a_valid_start(self):
        tr = make_trace([0.0, 1.0], [1e6, 2e6], 2.0)
        assert tr.time_to_deliver(0.0, 1e6) == 1.0
        assert tr.time_to_deliver(-0.0, 1e6) == 1.0
        assert tr.bandwidth_at(0.0) == 1e6

    def test_time_to_deliver_across_cycles(self):
        tr = make_trace([0.0, 1.0], [1e6, 2e6], 2.0)
        # One full cycle delivers 3e6 bits in 2 s.
        assert tr.time_to_deliver(0.0, 6e6) == pytest.approx(4.0)

    def test_average_bps_default_window_is_mean(self):
        tr = make_trace([0.0, 1.0], [1e6, 3e6], 2.0)
        assert tr.average_bps() == pytest.approx(tr.mean_bps)


class TestTraceDeliveryInversion:
    @given(
        start=st.floats(min_value=0.0, max_value=50.0),
        nbits=st.floats(min_value=1.0, max_value=1e9),
    )
    @settings(max_examples=60, deadline=None)
    def test_time_to_deliver_inverts_bits_between(self, start, nbits):
        rng = np.random.default_rng(42)
        tr = hsdpa_trace(rng, duration=30.0)
        dt = tr.time_to_deliver(start, nbits)
        delivered = tr.bits_between(start, start + dt)
        assert delivered == pytest.approx(nbits, rel=1e-6, abs=1.0)

    @given(
        t0=st.floats(min_value=0.0, max_value=100.0),
        w1=st.floats(min_value=0.0, max_value=50.0),
        w2=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bits_between_is_additive(self, t0, w1, w2):
        rng = np.random.default_rng(7)
        tr = lte_trace(rng, duration=40.0)
        whole = tr.bits_between(t0, t0 + w1 + w2)
        parts = tr.bits_between(t0, t0 + w1) + tr.bits_between(t0 + w1, t0 + w1 + w2)
        assert whole == pytest.approx(parts, rel=1e-9, abs=1e-3)


class TestGenerators:
    @pytest.mark.parametrize("gen", [fcc_trace, hsdpa_trace, lte_trace])
    def test_generated_traces_are_valid(self, gen):
        rng = np.random.default_rng(0)
        tr = gen(rng, duration=120.0)
        assert tr.duration >= 120.0
        assert np.all(tr.bandwidth_bps > 0)

    def test_fcc_is_broadband(self):
        rng = np.random.default_rng(1)
        means = [fcc_trace(rng, duration=60.0).mean_bps for _ in range(40)]
        assert np.median(means) > 3e6

    def test_3g_is_slow(self):
        rng = np.random.default_rng(2)
        means = [hsdpa_trace(rng, duration=60.0).mean_bps for _ in range(40)]
        assert np.median(means) < 4e6

    def test_lte_is_fast_but_bursty(self):
        rng = np.random.default_rng(3)
        traces = [lte_trace(rng, duration=300.0) for _ in range(20)]
        assert np.median([t.mean_bps for t in traces]) > 5e6
        # Burstiness: coefficient of variation notably above FCC's.
        cvs = [t.bandwidth_bps.std() / t.bandwidth_bps.mean() for t in traces]
        assert np.median(cvs) > 0.3

    def test_explicit_mean_is_respected(self):
        rng = np.random.default_rng(4)
        tr = fcc_trace(rng, duration=600.0, mean_bps=5e6)
        assert tr.mean_bps == pytest.approx(5e6, rel=0.35)

    def test_generate_trace_accepts_string_family(self):
        rng = np.random.default_rng(5)
        tr = generate_trace("3g", rng, duration=30.0)
        assert tr.family is TraceFamily.HSDPA_3G

    def test_generate_trace_rejects_unknown_family(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            generate_trace("5g", rng)

    def test_determinism_under_same_seed(self):
        t1 = hsdpa_trace(np.random.default_rng(9), duration=60.0)
        t2 = hsdpa_trace(np.random.default_rng(9), duration=60.0)
        np.testing.assert_array_equal(t1.bandwidth_bps, t2.bandwidth_bps)


class TestTraceCorpus:
    """The collection's trace mixture: traces drawn one per session by
    ``CollectionConfig().sample_trace``, each covering the longest
    watch duration."""

    @staticmethod
    def corpus(rng, n_traces):
        config = CollectionConfig()
        return [config.sample_trace(rng) for _ in range(n_traces)]

    def test_corpus_size(self):
        rng = np.random.default_rng(0)
        corpus = self.corpus(rng, 25)
        assert len(corpus) == 25
        assert {t.duration for t in corpus} == {CollectionConfig().max_watch_s + 100.0}

    def test_corpus_mixes_families(self):
        rng = np.random.default_rng(0)
        corpus = self.corpus(rng, 120)
        families = {t.family for t in corpus}
        assert families == {TraceFamily.FCC, TraceFamily.HSDPA_3G, TraceFamily.LTE}

    def test_corpus_spans_bandwidth_decades(self):
        """Figure 3a: the avg-bandwidth CDF spans ~100 kbps to ~100 Mbps."""
        rng = np.random.default_rng(1)
        corpus = self.corpus(rng, 200)
        means = np.array([t.mean_bps for t in corpus])
        assert means.min() < 1e6
        assert means.max() > 2e7
