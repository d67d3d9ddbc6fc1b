"""Tests for machine config, network model, memory tracker, noise model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, MemoryLimitError
from repro.machine.config import MachineSpec, NetworkSpec, NodeSpec, cori_knl
from repro.machine.memory import MemoryTracker
from repro.machine.network import NetworkModel
from repro.machine.noise import NoiseModel
from repro.utils.rng import RngFactory
from repro.utils.units import GB, MB


def test_cori_defaults():
    m = cori_knl(4)
    assert m.total_ranks == 256
    assert m.node.total_cores == 68
    assert m.system_isolated
    assert m.app_memory_per_rank == pytest.approx(1.4 * GB)
    assert m.describe().startswith("4 node(s)")


def test_cori_68_cores_not_isolated():
    m = cori_knl(1, app_cores_per_node=68)
    assert not m.system_isolated
    assert m.total_ranks == 68


def test_node_of_rank():
    m = cori_knl(2)
    assert m.node_of_rank(0) == 0
    assert m.node_of_rank(63) == 0
    assert m.node_of_rank(64) == 1


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        MachineSpec(nodes=0)
    with pytest.raises(ConfigurationError):
        MachineSpec(nodes=1, app_cores_per_node=100)
    with pytest.raises(ConfigurationError):
        NodeSpec(total_cores=0)
    with pytest.raises(ConfigurationError):
        NetworkSpec(bisection_taper=0.0)
    with pytest.raises(ConfigurationError):
        NetworkSpec(async_bw_efficiency=1.5)


def test_network_ptp_monotone_in_size():
    net = NetworkModel(cori_knl(2))
    assert net.ptp_time(1000) < net.ptp_time(10_000_000)


def test_network_single_node_uses_intranode_bw():
    one = NetworkModel(cori_knl(1))
    many = NetworkModel(cori_knl(64))
    assert one.schedulable_rank_bw() == pytest.approx(
        one.machine.node.intranode_bw / 64
    )
    assert many.schedulable_rank_bw() <= many.rank_bw


def test_message_size_efficiency_saturates():
    net = NetworkModel(cori_knl(8))
    small = net.message_size_efficiency(1_000)
    big = net.message_size_efficiency(100 * MB)
    assert small < big
    assert big <= net.machine.network.alltoallv_peak_efficiency
    # intranode exchanges bypass the message-size model
    assert NetworkModel(cori_knl(1)).message_size_efficiency(10) == 1.0


def test_barrier_grows_with_ranks():
    assert (NetworkModel(cori_knl(64)).barrier_time()
            > NetworkModel(cori_knl(2)).barrier_time())
    assert NetworkModel(cori_knl(1, app_cores_per_node=1)).barrier_time() == 0.0


def test_alltoallv_skew_makes_collective_slower_than_rank():
    net = NetworkModel(cori_knl(8))
    duration = net.alltoallv_time(100 * MB, 100 * MB, 100)
    personal = net.alltoallv_rank_time(10 * MB, 10 * MB, 100)
    assert personal < duration


def test_rpc_pull_time_regimes():
    net = NetworkModel(cori_knl(8))
    # volume-bound when payload large (full duplex: the larger direction)
    t_vol = net.rpc_pull_time(100, 1 * GB, 100, 0.5 * GB)
    assert t_vol >= 1 * GB / net.async_rank_bw()
    # cpu-bound when many tiny messages
    t_cpu = net.rpc_pull_time(1_000_000, 1.0, 1_000_000, 1.0)
    assert t_cpu > net.rpc_pull_time(10, 1.0, 10, 1.0)
    # empty pull costs nothing
    assert net.rpc_pull_time(0, 0, 0, 0) == 0.0


def test_rpc_overload_regime():
    net = NetworkModel(cori_knl(8))
    threshold = net.machine.network.rpc_overload_threshold
    below = net.rpc_overload_extra(threshold * 0.9)
    above = net.rpc_overload_extra(threshold * 2)
    assert below == 0.0
    assert above > 0.0


# -- array-capable formulas: one code path for a rank and for all ranks -----

def _reference_rpc_pull_time(net, lookups, resp, incoming, incoming_bytes):
    """§3.2's service equation in plain Python floats, one rank at a time
    (the form the macro engines looped over before it took arrays)."""
    if lookups <= 0 and incoming <= 0:
        return 0.0
    n = net.machine.network
    inject = lookups * (n.msg_gap + n.msg_overhead)
    service = incoming * (n.rpc_service_gap + n.msg_overhead)
    volume = max(resp, incoming_bytes) / net.async_rank_bw()
    ramp = 2 * n.alpha + n.msg_overhead
    rtt = 2 * n.alpha + n.msg_overhead + n.rpc_service_gap
    window_limited = lookups * rtt / n.outstanding_limit
    overload = 0.0
    if net.machine.nodes > 1 and incoming > n.rpc_overload_threshold:
        overload = n.rpc_overload_entry + (
            incoming - n.rpc_overload_threshold) * n.rpc_overload_cost
    return max(inject + service, volume, window_limited) + ramp + overload


_THRESHOLD = NetworkSpec().rpc_overload_threshold
#: idle ranks (exact zeros), counts around the overload threshold, bulk
_COUNTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=2 * _THRESHOLD),
    st.sampled_from([_THRESHOLD, np.nextafter(_THRESHOLD, np.inf)]),
)
_BYTES = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4 * GB))


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.sampled_from([1, 2, 8]),
    ranks=st.lists(st.tuples(_COUNTS, _BYTES, _COUNTS, _BYTES),
                   min_size=1, max_size=12),
    sources=st.floats(min_value=0.5, max_value=600.0),
    eff_scale=st.floats(min_value=0.1, max_value=1.0),
)
def test_array_formulas_equal_scalar_formulas_bitwise(nodes, ranks, sources,
                                                      eff_scale):
    """``f(arrays)[i] == f(scalars_i)`` to the last bit, for every formula
    that takes either — and the RPC equation equals its plain-float form."""
    net = NetworkModel(cori_knl(nodes))
    cols = [np.array(c) for c in zip(*ranks)]
    lookups, resp, incoming, incoming_bytes = cols
    per_formula = {
        "rpc_pull_time": (net.rpc_pull_time, cols),
        "rpc_overload_extra": (net.rpc_overload_extra, [incoming]),
        "message_size_efficiency": (net.message_size_efficiency, [resp]),
        "alltoallv_rank_time": (
            lambda s, r: net.alltoallv_rank_time(
                s, r, sources, efficiency_scale=eff_scale),
            [incoming_bytes, resp]),
    }
    for name, (fn, args) in per_formula.items():
        batched = fn(*args)
        assert batched.shape == lookups.shape, name
        for i in range(len(ranks)):
            one = fn(*(float(a[i]) for a in args))
            assert type(one) is float, name
            assert one == batched[i], (name, i)
    pulled = net.rpc_pull_time(*cols)
    for i, rank in enumerate(ranks):
        assert pulled[i] == _reference_rpc_pull_time(net, *rank)


def test_memory_tracker_budget_and_high_water():
    m = cori_knl(1, app_cores_per_node=4)
    tracker = MemoryTracker(m)
    tracker.allocate(0, "buf", 100 * MB)
    tracker.allocate(0, "buf2", 50 * MB)
    tracker.free(0, "buf")
    assert tracker.rank_high_water()[0] == pytest.approx(150 * MB)


def test_memory_tracker_overflow():
    m = cori_knl(1, app_cores_per_node=4)
    tracker = MemoryTracker(m)
    with pytest.raises(MemoryLimitError):
        tracker.allocate(0, "huge", 100 * GB)


def test_memory_tracker_bad_free():
    m = cori_knl(1, app_cores_per_node=4)
    tracker = MemoryTracker(m)
    tracker.allocate(1, "x", 10 * MB)
    with pytest.raises(MemoryLimitError):
        tracker.free(1, "x", 20 * MB)


def test_memory_shared_within_node():
    """Ranks on one node share the node budget."""
    m = cori_knl(1, app_cores_per_node=4)  # node budget = 4 * 1.4 GB
    tracker = MemoryTracker(m)
    tracker.allocate(0, "big", 3 * GB)  # > per-rank, < node budget
    with pytest.raises(MemoryLimitError):
        tracker.allocate(1, "big", 3 * GB)


def test_noise_inactive_when_isolated():
    m = cori_knl(1, app_cores_per_node=64)
    noise = NoiseModel(m, RngFactory(0))
    x = np.ones(64)
    assert np.array_equal(noise.dilate(x, 0), x)


def test_noise_active_and_deterministic():
    m = cori_knl(1, app_cores_per_node=68)
    noise = NoiseModel(m, RngFactory(0), noise_fraction=0.05)
    x = np.ones(68)
    d1 = noise.dilate(x, 0)
    d2 = NoiseModel(m, RngFactory(0), noise_fraction=0.05).dilate(x, 0)
    assert np.array_equal(d1, d2)
    assert np.all(d1 >= 1.0)
    assert d1.max() > 1.0
    # different phases draw different noise
    assert not np.array_equal(d1, noise.dilate(x, 1))


def test_noise_scalar():
    m = cori_knl(1, app_cores_per_node=68)
    noise = NoiseModel(m, RngFactory(0), noise_fraction=0.05)
    v = noise.dilate_scalar(1.0, rank=3, phase_key=0)
    assert v >= 1.0
    assert v == noise.dilate_scalar(1.0, rank=3, phase_key=0)
