"""Analytic network timing models over a :class:`MachineSpec`.

Collective and point-to-point costs follow LogGP/Hockney-style formulas
(DESIGN.md §2): event-per-message simulation at 32K ranks would need O(P^2)
events per superstep, so communication phases are modeled per rank.

**Irregular all-to-all (BSP path).**  The exchange completes when the most
loaded rank finishes (blocking-collective semantics — this is where the
exchange load imbalance of Figure 6 bites), at a bandwidth that depends on
the *per-source aggregate message size*: multi-MB aggregates stream at the
NIC/bisection share, while a workload spread thin over many ranks degrades
to protocol-dominated small messages (``msg_half_size``).  This reproduces
the paper's observation that BSP latency scales sublinearly at scale
(Figure 7) while being very efficient when aggregation is effective.

**RPC pulls (Async path).**  Each rank pulls its distinct remote reads with
bounded outstanding requests, while serving incoming lookups.  Payload moves
at ``async_bw_efficiency`` of the schedulable bandwidth (unpaced fine-grained
traffic), plus per-message injection and service gaps, plus a degraded
regime when a rank's incoming queue is very deep (the 8-16-node hump of
Figure 7, §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.config import MachineSpec

__all__ = ["NetworkModel"]


#: the per-rank formulas take one rank's value or an array of all ranks'
FloatOrArray = float | np.ndarray


def _scalar_or_array(x) -> FloatOrArray:
    """A Python float for 0-d results, the array itself otherwise."""
    return x if np.ndim(x) else float(x)


@dataclass(frozen=True)
class NetworkModel:
    """Timing formulas bound to one machine configuration."""

    machine: MachineSpec

    # -- basic shares -------------------------------------------------------

    @property
    def rank_bw(self) -> float:
        """NIC bandwidth share of one rank (bytes/s)."""
        net = self.machine.network
        return net.injection_bw / self.machine.app_cores_per_node

    @property
    def bisection_bw(self) -> float:
        """Machine-wide global bandwidth for all-to-all traffic (bytes/s)."""
        net = self.machine.network
        return self.machine.nodes * net.injection_bw * net.bisection_taper

    def schedulable_rank_bw(self) -> float:
        """Per-rank bandwidth ceiling for well-scheduled bulk traffic.

        The smaller of the NIC share and this rank's share of bisection
        bandwidth; on a single node, the intranode (memory) share instead.
        """
        if self.machine.nodes == 1:
            return self.machine.node.intranode_bw / self.machine.app_cores_per_node
        bisection_share = self.bisection_bw / self.machine.total_ranks
        return min(self.rank_bw, bisection_share)

    def message_size_efficiency(self, avg_msg_bytes: FloatOrArray) -> FloatOrArray:
        """Bandwidth fraction achieved at a given aggregate message size
        (a scalar, or one size per rank)."""
        net = self.machine.network
        if self.machine.nodes == 1:
            return _scalar_or_array(np.ones(np.shape(avg_msg_bytes)))
        m = np.maximum(1.0, avg_msg_bytes)
        # msg_half_size >= 0 and m >= 1, so a zero half-size gives exactly 1
        return _scalar_or_array(np.minimum(
            m / (m + net.msg_half_size), net.alltoallv_peak_efficiency))

    # -- point to point ------------------------------------------------------

    def ptp_time(self, nbytes: float) -> float:
        """One message of ``nbytes``: latency + serialization."""
        net = self.machine.network
        return net.alpha + net.msg_overhead + nbytes / self.rank_bw

    # -- collectives ---------------------------------------------------------

    def barrier_time(self) -> float:
        """Dissemination barrier: ceil(log2(P)) rounds of small messages."""
        p = self.machine.total_ranks
        if p <= 1:
            return 0.0
        rounds = int(np.ceil(np.log2(p)))
        return rounds * self.machine.network.barrier_latency

    def allreduce_time(self, nbytes: float = 8.0) -> float:
        """Small allreduce: reduce + broadcast trees carrying ``nbytes``."""
        p = self.machine.total_ranks
        if p <= 1:
            return 0.0
        rounds = int(np.ceil(np.log2(p)))
        per_hop = self.machine.network.barrier_latency + nbytes / self.rank_bw
        return 2 * rounds * per_hop

    def alltoallv_time(
        self,
        max_send_bytes: float,
        max_recv_bytes: float,
        avg_sources: float,
        efficiency_scale: float = 1.0,
    ) -> float:
        """Duration of one irregular all-to-all exchange round: the most
        loaded rank's :meth:`alltoallv_rank_time` plus the closing barrier.

        ``avg_sources`` is the typical number of peers a rank exchanges
        nonempty messages with; it sets the per-source aggregate size and
        hence the achieved bandwidth fraction.  ``efficiency_scale`` lets
        callers model further degradation (e.g. memory-limited multi-round
        buffering that cannot pipeline pack/unpack with transmission).
        """
        return self.alltoallv_rank_time(
            float(max_send_bytes), float(max_recv_bytes), avg_sources,
            efficiency_scale=efficiency_scale,
        ) + self.barrier_time()

    def alltoallv_rank_time(
        self,
        own_send_bytes: FloatOrArray,
        own_recv_bytes: FloatOrArray,
        avg_sources: float,
        efficiency_scale: float = 1.0,
    ) -> FloatOrArray:
        """The *personal* (pre-wait) cost of one rank in the exchange —
        or of every rank at once, given per-rank send/recv arrays.

        The difference between the collective duration and this value is
        time spent waiting on more-loaded ranks.
        """
        p = self.machine.total_ranks
        net = self.machine.network
        volume = np.maximum(own_send_bytes, own_recv_bytes)
        sources = max(1.0, min(float(avg_sources), p - 1.0)) if p > 1 else 1.0
        eff = self.message_size_efficiency(volume / sources) * efficiency_scale
        setup = (p - 1) * net.msg_overhead if p > 1 else 0.0
        return _scalar_or_array(
            setup + volume / (self.schedulable_rank_bw() * eff))

    # -- asynchronous RPC batches ---------------------------------------------

    def async_rank_bw(self) -> float:
        """Payload bandwidth achieved by unscheduled RPC pulls."""
        return self.schedulable_rank_bw() * self.machine.network.async_bw_efficiency

    def suggested_rpc_timeout(self) -> float:
        """Default RPC timeout for the fault-tolerant retry path.

        Generous relative to the unloaded round trip so deep-but-healthy
        service queues do not trigger spurious retransmissions, yet short
        enough that a dropped response is detected well within a simulated
        run.  Fault plans may override it (``timeout=`` in the spec).
        """
        net = self.machine.network
        return max(2e-3, 250.0 * (net.rtt + net.rpc_service_gap))

    def rpc_overload_extra(self, incoming_lookups: FloatOrArray) -> FloatOrArray:
        """Extra seconds in the degraded deep-queue regime (§4.3), for one
        rank's incoming-lookup count or an array of them.

        Applies only across the network: intranode pulls resolve through
        shared memory and never hit the NIC attentiveness limits.
        """
        if self.machine.nodes == 1:
            return _scalar_or_array(np.zeros(np.shape(incoming_lookups)))
        net = self.machine.network
        excess = np.maximum(0.0, incoming_lookups - net.rpc_overload_threshold)
        return _scalar_or_array(np.where(
            excess > 0,
            net.rpc_overload_entry + excess * net.rpc_overload_cost,
            0.0,
        ))

    def rpc_pull_time(
        self,
        lookups: FloatOrArray,
        response_bytes_total: FloatOrArray,
        incoming_lookups: FloatOrArray,
        incoming_bytes_total: FloatOrArray,
    ) -> FloatOrArray:
        """Time for one rank to pull ``lookups`` remote reads via RPC while
        serving ``incoming_lookups`` for other ranks — or, given per-rank
        arrays, for every rank in one vector pass (which is what lets a
        macro run skip a per-rank loop).

        With a deep-enough outstanding window the round trip is paid ~once;
        steady state is the max of (a) CPU-side work — injection gaps plus
        serial service of incoming lookups — and (b) payload movement both
        directions at the async bandwidth share; plus the overload penalty.
        A rank that neither pulls nor serves pays nothing.
        """
        net = self.machine.network
        inject = lookups * (net.msg_gap + net.msg_overhead)
        service = incoming_lookups * (net.rpc_service_gap + net.msg_overhead)
        # links are full duplex: inbound responses and outbound serves
        # stream concurrently, so the payload term is the larger direction
        volume = (np.maximum(response_bytes_total, incoming_bytes_total)
                  / self.async_rank_bw())
        ramp = 2 * net.alpha + net.msg_overhead
        # window-limited throughput: at most `outstanding_limit` requests in
        # flight, so sustained rate is bounded by window/rtt — this is what
        # makes aggregation "necessary on a high-latency network" (§5)
        rtt = 2 * net.alpha + net.msg_overhead + net.rpc_service_gap
        window_limited = lookups * rtt / net.outstanding_limit
        busy = (
            np.maximum(np.maximum(inject + service, volume), window_limited)
            + ramp
        )
        # the overload term is zero below the threshold and ``busy`` is
        # positive, so adding it only where some rank crosses is exact
        if np.any(np.greater(incoming_lookups, net.rpc_overload_threshold)):
            busy = busy + self.rpc_overload_extra(incoming_lookups)
        if np.any(np.less_equal(lookups, 0)):
            idle = np.logical_and(np.less_equal(lookups, 0),
                                  np.less_equal(incoming_lookups, 0))
            busy = np.where(idle, 0.0, busy)
        return _scalar_or_array(busy)
