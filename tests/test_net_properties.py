"""Property-based tests for the network substrate's core invariants.

The TCP model and every impairment stage lean on two ``Link`` methods
being exact inverses: ``delivery_time`` (bytes -> seconds) and
``deliverable_bytes`` (seconds -> bytes), both thin wrappers over the
trace integral.  Hypothesis sweeps traces from all three families and
arbitrary start offsets (including beyond the trace duration, where the
schedule repeats cyclically) to pin the round-trip identities, the
zero-length edge cases, and the efficiency-bound validation.

``TestTraceOracle`` holds the trace's scalar queries (``bisect`` over
Python-list copies) to the ``np.searchsorted`` implementations they
replaced (``tests/trace_oracle.py``) with exact ``==`` on random
traces, 1-interval ones and 8 kbps-120 Mbps bandwidths included, at
interval starts, cycle wraps and cumulative-bit boundaries.  Run from
the repository root (it imports ``tests.trace_oracle``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.bandwidth import (
    BandwidthTrace,
    TraceFamily,
    generate_trace,
)
from repro.net.link import Link
from tests import trace_oracle


@st.composite
def traces(draw):
    family = draw(st.sampled_from(list(TraceFamily)))
    seed = draw(st.integers(0, 10_000))
    duration = draw(st.floats(20.0, 600.0))
    return generate_trace(family, np.random.default_rng(seed), duration=duration)


#: Bandwidths from the trace floor (8 kbps) to the top of the FCC
#: range (120 Mbps), the range's ends included exactly.
bandwidths = st.one_of(
    st.sampled_from([8e3, 120e6]),
    st.floats(8e3, 120e6),
    st.floats(np.log(8e3), np.log(120e6)).map(np.exp).map(float),
)


@st.composite
def piecewise_traces(draw):
    """Arbitrary schedules: 1-12 intervals, irregular widths."""
    n = draw(st.integers(1, 12))
    widths = draw(
        st.lists(
            st.one_of(st.sampled_from([1.0, 5.0]), st.floats(1e-3, 100.0)),
            min_size=n,
            max_size=n,
        )
    )
    bws = draw(st.lists(bandwidths, min_size=n, max_size=n))
    times = np.concatenate([[0.0], np.cumsum(widths[:-1])])
    return BandwidthTrace(
        times=times,
        bandwidth_bps=np.asarray(bws),
        duration=float(times[-1] + widths[-1]),
        family=TraceFamily.LTE,
    )


any_traces = st.one_of(traces(), piecewise_traces())


@st.composite
def query_times(draw, trace):
    """Valid query times: anywhere, exactly at an interval start (in
    any cycle), or exactly at a multiple of the duration (the wrap)."""
    i = draw(st.integers(0, len(trace.times) - 1))
    k = draw(st.integers(0, 5))
    return draw(
        st.sampled_from(
            [
                float(trace.times[i]),
                float(trace.times[i] + k * trace.duration),
                k * trace.duration,
                draw(st.floats(0.0, 6.0 * trace.duration)),
            ]
        )
    )


@st.composite
def query_bits(draw, trace):
    """Bit counts: anywhere, exactly a cumulative boundary (so from
    ``t0 = 0`` the target lands on it), or a multiple of a cycle."""
    j = draw(st.integers(0, len(trace.times)))
    k = draw(st.integers(1, 4))
    return draw(
        st.sampled_from(
            [
                float(trace._cum_bits[j]),
                k * trace.total_bits,
                float(trace._cum_bits[j] + k * trace.total_bits),
                draw(st.floats(0.0, 6.0 * trace.total_bits)),
            ]
        )
    )


class TestTraceOracle:
    @given(trace=any_traces, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bandwidth_at_equals_oracle(self, trace, data):
        t = data.draw(query_times(trace))
        assert trace.bandwidth_at(t) == trace_oracle.bandwidth_at(trace, t)

    @given(trace=any_traces, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bits_between_equals_oracle(self, trace, data):
        t0, t1 = sorted((data.draw(query_times(trace)), data.draw(query_times(trace))))
        assert trace.bits_between(t0, t1) == trace_oracle.bits_between(trace, t0, t1)

    @given(trace=any_traces, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_time_to_deliver_equals_oracle(self, trace, data):
        t0 = data.draw(st.one_of(st.just(0.0), query_times(trace)))
        nbits = data.draw(query_bits(trace))
        got = trace.time_to_deliver(t0, nbits)
        assert got == trace_oracle.time_to_deliver(trace, t0, nbits)
        assert type(got) is float

    @given(
        bw=bandwidths,
        width=st.floats(1e-3, 100.0),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_interval_trace_equals_oracle(self, bw, width, data):
        trace = BandwidthTrace(
            times=np.array([0.0]),
            bandwidth_bps=np.array([bw]),
            duration=width,
            family=TraceFamily.FCC,
        )
        t0 = data.draw(query_times(trace))
        nbits = data.draw(query_bits(trace))
        assert trace.bandwidth_at(t0) == trace_oracle.bandwidth_at(trace, t0) == bw
        assert trace.time_to_deliver(t0, nbits) == trace_oracle.time_to_deliver(
            trace, t0, nbits
        )
        assert trace.bits_between(0.0, t0) == trace_oracle.bits_between(trace, 0.0, t0)


class TestAr1Oracle:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        mean=bandwidths,
        sigma=st.floats(0.0, 1.5),
        rho=st.floats(0.0, 0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_ar1_series_equals_oracle_and_leaves_the_generator_alike(
        self, seed, n, mean, sigma, rho
    ):
        from repro.net.bandwidth import _ar1_series

        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _ar1_series(rng, n, mean, sigma, rho)
        want = trace_oracle.ar1_series(ref_rng, n, mean, sigma, rho)
        assert got.tobytes() == want.tobytes()
        # Same draws: the next draw from both generators agrees.
        assert rng.random() == ref_rng.random()


@st.composite
def links(draw):
    efficiency = draw(st.floats(0.05, 1.0))
    return Link(trace=draw(traces()), efficiency=efficiency)


class TestTraceProperties:
    @given(trace=traces(), t0=st.floats(0.0, 5000.0), nbits=st.floats(1.0, 1e9))
    @settings(max_examples=60, deadline=None)
    def test_time_to_deliver_inverts_bits_between(self, trace, t0, nbits):
        dt = trace.time_to_deliver(t0, nbits)
        assert dt > 0
        got = trace.bits_between(t0, t0 + dt)
        assert got == pytest.approx(nbits, rel=1e-6, abs=1e-3)

    @given(trace=traces(), t0=st.floats(0.0, 5000.0))
    @settings(max_examples=60, deadline=None)
    def test_bits_between_is_monotone_and_zero_at_zero_width(self, trace, t0):
        assert trace.bits_between(t0, t0) == 0.0
        spans = [trace.bits_between(t0, t0 + w) for w in (1.0, 2.0, 4.0)]
        assert spans[0] <= spans[1] <= spans[2]
        assert all(b >= 0 for b in spans)

    @given(trace=traces(), idx=st.integers(0, 10_000), cycles=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_bandwidth_is_cyclic(self, trace, idx, cycles):
        # Probe bin *centers*: at a bin edge, the ulp-scale rounding of
        # the wrapped phase ``(t0 + k*duration) % duration`` can flip
        # into the adjacent bin, and that wobble is not the contract —
        # the schedule repeating is.
        i = idx % len(trace.times)
        widths = np.diff(np.append(trace.times, trace.duration))
        t0 = trace.times[i] + 0.5 * widths[i]
        assert trace.bandwidth_at(t0 + cycles * trace.duration) == (
            pytest.approx(trace.bandwidth_at(t0), rel=1e-9)
        )

    @given(trace=traces())
    @settings(max_examples=40, deadline=None)
    def test_bandwidth_has_a_positive_floor(self, trace):
        # Outages trickle instead of flatlining, so transfer times stay
        # bounded.
        assert trace.bandwidth_bps.min() > 0


class TestLinkProperties:
    @given(
        link=links(),
        start=st.floats(0.0, 3000.0),
        nbytes=st.floats(1.0, 5e7),
    )
    @settings(max_examples=60, deadline=None)
    def test_delivery_roundtrip(self, link, start, nbytes):
        # deliverable_bytes(start, start + delivery_time(start, n)) == n:
        # the identity every transfer-completion estimate rests on.
        dt = link.delivery_time(start, nbytes)
        assert dt > 0
        got = link.deliverable_bytes(start, start + dt)
        assert got == pytest.approx(nbytes, rel=1e-6, abs=1e-3)

    @given(link=links(), start=st.floats(0.0, 3000.0))
    @settings(max_examples=40, deadline=None)
    def test_zero_bytes_take_zero_time(self, link, start):
        assert link.delivery_time(start, 0) == 0.0
        assert link.deliverable_bytes(start, start) == 0.0

    @given(link=links(), start=st.floats(0.0, 3000.0))
    @settings(max_examples=40, deadline=None)
    def test_negative_bytes_rejected(self, link, start):
        with pytest.raises(ValueError):
            link.delivery_time(start, -1.0)

    @given(
        link=links(),
        start=st.floats(0.0, 3000.0),
        a=st.floats(1.0, 1e6),
        b=st.floats(1.0, 1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_delivery_time_is_monotone_in_bytes(self, link, start, a, b):
        lo, hi = sorted((a, b))
        assert link.delivery_time(start, lo) <= link.delivery_time(start, hi)

    @given(link=links(), t=st.floats(0.0, 3000.0))
    @settings(max_examples=40, deadline=None)
    def test_payload_rate_matches_trace(self, link, t):
        expected = link.trace.bandwidth_at(t) * link.efficiency / 8.0
        assert link.payload_rate_at(t) == pytest.approx(expected, rel=1e-12)

    @given(trace=traces(), efficiency=st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_lower_efficiency_never_delivers_faster(self, trace, efficiency):
        full = Link(trace=trace, efficiency=1.0)
        lossy = Link(trace=trace, efficiency=efficiency)
        assert lossy.delivery_time(0.0, 1e6) >= full.delivery_time(0.0, 1e6)


class TestEfficiencyBounds:
    def make_trace(self):
        return generate_trace(TraceFamily.FCC, np.random.default_rng(0))

    def test_efficiency_one_is_allowed(self):
        Link(trace=self.make_trace(), efficiency=1.0)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0000001, 2.0])
    def test_out_of_range_efficiency_rejected(self, bad):
        with pytest.raises(ValueError, match="efficiency"):
            Link(trace=self.make_trace(), efficiency=bad)


class TestNetPathDelegation:
    @given(
        link=links(),
        start=st.floats(0.0, 1000.0),
        nbytes=st.floats(1.0, 1e6),
    )
    @settings(max_examples=40, deadline=None)
    def test_netpath_is_transparent_for_link_queries(self, link, start, nbytes):
        from repro.net.path import NetPath

        path = NetPath(link)
        assert path.delivery_time(start, nbytes) == link.delivery_time(
            start, nbytes
        )
        assert path.deliverable_bytes(start, start + 5.0) == (
            link.deliverable_bytes(start, start + 5.0)
        )
