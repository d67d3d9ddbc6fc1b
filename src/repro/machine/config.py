"""Machine specifications, with the Cori KNL preset used throughout §4.

Numbers for :func:`cori_knl` come from the paper and public NERSC/Cray
documentation:

* 68-core Intel Xeon Phi 7250 (KNL) @ 1.4 GHz per node, 4-way hyperthreaded
  (hyperthreads gave "negligible or no benefit", §4.1, so ranks map to full
  cores);
* 96 GB DDR4 + 16 GB MCDRAM per node; roughly **1.4 GB application-available
  memory per core** with 64 application cores (Figure 11's solid line);
* Cray Aries interconnect, dragonfly topology: ~1.3 us one-sided latency,
  ~10 GB/s injection bandwidth per NIC (shared by all ranks on the node),
  with a global-bandwidth taper for traffic crossing dragonfly groups;
* default run configuration: 64 application cores per node, 4 cores left to
  the OS ("system overhead isolation", §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.utils.units import GB, GIB, US

__all__ = ["NodeSpec", "NetworkSpec", "MachineSpec", "cori_knl"]


@dataclass(frozen=True)
class NodeSpec:
    """One compute node."""

    total_cores: int = 68
    core_ghz: float = 1.4
    memory_bytes: float = 96 * GIB
    mcdram_bytes: float = 16 * GIB
    #: memory a rank can actually use for application data once the OS,
    #: runtime, and buffers take their share (paper: "roughly 1.4GB").
    app_memory_per_core: float = 1.4 * GB
    #: effective aggregate throughput of an intranode rank-to-rank exchange
    #: (MPI alltoallv through shared memory on KNL: pack/unpack on 1.4 GHz
    #: in-order cores, far below raw STREAM bandwidth).  Calibrated to the
    #: paper's single-node anchor: BSP communication is "just over 1%" of
    #: the E. coli 100x single-node runtime (Figure 8).
    intranode_bw: float = 8 * GB

    def __post_init__(self) -> None:
        if self.total_cores <= 0:
            raise ConfigurationError("node must have cores")
        if self.memory_bytes <= 0 or self.app_memory_per_core <= 0:
            raise ConfigurationError("node memory must be positive")


@dataclass(frozen=True)
class NetworkSpec:
    """LogGP-style parameters of the interconnect.

    alpha : one-way small-message latency (seconds).
    rtt : remote-procedure-call round trip (2x alpha plus handler entry).
    injection_bw : NIC bandwidth per node (bytes/s), shared by its ranks.
    msg_overhead : CPU send/recv overhead per message (the *o* of LogGP).
    msg_gap : minimum gap between message injections per rank (the *g*).
    rpc_service_gap : time for a rank to service one incoming RPC
        (lookup + enqueue response), paid serially at the callee.
    bisection_taper : global (cross-group) bandwidth as a fraction of the
        aggregate injection bandwidth — dragonfly global links tapered.
    barrier_latency : per-hop latency of a log2(P) barrier/reduction tree.
    outstanding_limit : runtime cap on in-flight RPCs per rank (UPC++/
        GASNet-EX tuning knob the paper speculates about in §4.3).
    msg_half_size : the per-source aggregated-message size at which the
        irregular all-to-all reaches half its peak bandwidth.
    alltoallv_peak_efficiency : ceiling on the fraction of the schedulable
        (bisection/NIC) share an *irregular* all-to-all ever achieves —
        irregular personalized exchanges never reach the bisection bound
        (unbalanced routes, pack/unpack on slow KNL cores).  Small
        per-pair messages (an E. coli-sized workload spread over 8K ranks)
        are protocol-dominated; multi-MB aggregates stream at full rate —
        this is what makes BSP latency scale *sublinearly* at scale
        (Figure 7) while staying cheap when aggregation is effective.
    async_bw_efficiency : fraction of the schedulable (collective) bandwidth
        that unscheduled fine-grained RPC traffic achieves — pulls arrive
        unpaced, so the async code pays this on its payload movement; it is
        the bandwidth-side price of skipping aggregation (§5's
        aggregation-vs-latency trade-off).
    rpc_overload_threshold : incoming lookups per rank beyond which the RPC
        runtime enters a degraded regime (deep queues, retries) — the
        8-16-node latency hump of Figure 7 the paper attributes to untuned
        outgoing-request limits (§4.3).
    rpc_overload_cost : extra seconds per excess incoming lookup in the
        degraded regime.
    rpc_overload_entry : fixed recovery time once a rank's incoming queue
        saturates — retransmission/backoff storms are governed by runtime
        timeout constants rather than queue depth, which is why the paper
        sees *poor scaling* (not just higher latency) between 8 and 16
        nodes (§4.3) before the regime clears.
    """

    alpha: float = 1.3 * US
    injection_bw: float = 10 * GB
    msg_overhead: float = 0.5 * US
    msg_gap: float = 0.4 * US
    rpc_service_gap: float = 0.8 * US
    bisection_taper: float = 0.5
    barrier_latency: float = 1.8 * US
    outstanding_limit: int = 64
    msg_half_size: float = 24_000.0
    alltoallv_peak_efficiency: float = 0.5
    async_bw_efficiency: float = 0.5
    rpc_overload_threshold: float = 25_000.0
    rpc_overload_cost: float = 450.0 * US
    rpc_overload_entry: float = 40.0

    @property
    def rtt(self) -> float:
        return 2.0 * self.alpha + self.msg_overhead

    def __post_init__(self) -> None:
        if min(self.alpha, self.injection_bw, self.msg_overhead,
               self.msg_gap, self.rpc_service_gap, self.barrier_latency) <= 0:
            raise ConfigurationError("network parameters must be positive")
        if not 0 < self.bisection_taper <= 1:
            raise ConfigurationError("bisection_taper must be in (0,1]")
        if not 0 < self.async_bw_efficiency <= 1:
            raise ConfigurationError("async_bw_efficiency must be in (0,1]")
        if self.outstanding_limit < 1:
            raise ConfigurationError("outstanding_limit must be >= 1")
        if self.msg_half_size < 0 or self.rpc_overload_cost < 0:
            raise ConfigurationError("msg_half_size/rpc_overload_cost must be >= 0")


@dataclass(frozen=True)
class MachineSpec:
    """A whole machine allocation: nodes x ranks-per-node plus the network."""

    nodes: int
    node: NodeSpec = field(default_factory=NodeSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    #: ranks running application code per node (64 on Cori KNL by default,
    #: with the remaining cores isolating system overhead; 68 disables
    #: isolation and exposes OS noise, Figure 3).
    app_cores_per_node: int = 64

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ConfigurationError("machine needs at least one node")
        if not 0 < self.app_cores_per_node <= self.node.total_cores:
            raise ConfigurationError(
                "app_cores_per_node must be in (0, total_cores]"
            )

    @property
    def total_ranks(self) -> int:
        return self.nodes * self.app_cores_per_node

    @property
    def system_isolated(self) -> bool:
        """True when some cores are left free to absorb OS interference."""
        return self.app_cores_per_node < self.node.total_cores

    @property
    def app_memory_per_rank(self) -> float:
        return self.node.app_memory_per_core

    def node_of_rank(self, rank: int) -> int:
        """Block mapping of ranks to nodes (rank r runs on node r // cpn)."""
        return rank // self.app_cores_per_node

    def describe(self) -> str:
        return (
            f"{self.nodes} node(s) x {self.app_cores_per_node} app cores "
            f"({self.node.total_cores}-core nodes, "
            f"{self.total_ranks} ranks total)"
        )


def cori_knl(nodes: int, app_cores_per_node: int = 64) -> MachineSpec:
    """The Cori KNL (Cray XC40) configuration of the paper's experiments."""
    return MachineSpec(
        nodes=nodes,
        node=NodeSpec(),
        network=NetworkSpec(),
        app_cores_per_node=app_cores_per_node,
    )
