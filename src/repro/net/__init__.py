"""Network substrate: latency models, AWS-region topologies, and the
reliable partially-synchronous message fabric."""

from .conditions import (
    DegradeSpec,
    IsolateSpec,
    degrade_window,
    isolate_node,
    remove_hook,
)
from .latency import ConstantLatency, LatencyModel, TopologyLatency
from .message import HEADER_BYTES, Envelope, payload_size
from .network import DEFAULT_BANDWIDTH_BPS, Network
from .regions import EU4, LOCAL, TOPOLOGIES, US4, WORLD11, Topology, rtt_ms

__all__ = [
    "DegradeSpec",
    "IsolateSpec",
    "degrade_window",
    "isolate_node",
    "remove_hook",
    "ConstantLatency",
    "LatencyModel",
    "TopologyLatency",
    "HEADER_BYTES",
    "Envelope",
    "payload_size",
    "DEFAULT_BANDWIDTH_BPS",
    "Network",
    "EU4",
    "LOCAL",
    "TOPOLOGIES",
    "US4",
    "WORLD11",
    "Topology",
    "rtt_ms",
]
