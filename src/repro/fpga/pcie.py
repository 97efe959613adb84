"""PCIe host-to-board transfer model (paper Table 4 and Figure 9).

LightRW is deployed as a PCIe-attached accelerator: the host DMA-transfers
the CSR graph (replicated per instance/channel) and the query batch to the
board's DRAM, launches the kernel, and reads the result paths back.  This
model charges each direction an effective Gen3 x16 bandwidth plus a fixed
per-invocation latency, producing the "PCIe share of end-to-end time"
percentages the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.csr import CSRGraph

#: Bytes per query descriptor (start vertex, length, metadata).
QUERY_BYTES = 16
#: Bytes per result path entry.
RESULT_BYTES = 4


@dataclass(frozen=True)
class PCIeModel:
    """Effective host<->FPGA DMA characteristics."""

    #: Sustained DMA bandwidth of PCIe Gen3 x16 with the XDMA engine (B/s).
    bandwidth_bytes_per_s: float = 12.0e9
    #: Fixed software + DMA setup latency per transfer batch (s).
    setup_latency_s: float = 30e-6
    #: Graph copies shipped (one private copy per instance, Figure 9).
    graph_copies: int = 4

    def transfer_s(self, n_bytes: float) -> float:
        """Time to move ``n_bytes`` in one DMA batch."""
        if n_bytes < 0:
            raise ValueError(f"byte count must be non-negative, got {n_bytes}")
        if n_bytes == 0:
            return 0.0
        return self.setup_latency_s + n_bytes / self.bandwidth_bytes_per_s

    def host_to_board_s(self, graph: CSRGraph, n_queries: int) -> float:
        """Ship the graph (replicated) plus the query batch."""
        graph_bytes = graph.total_bytes() * self.graph_copies
        return self.transfer_s(graph_bytes + n_queries * QUERY_BYTES)

    def board_to_host_s(self, total_steps: int) -> float:
        """Read back every sampled vertex of every walk."""
        return self.transfer_s(total_steps * RESULT_BYTES)

    def round_trip_s(self, graph: CSRGraph, n_queries: int, total_steps: int) -> float:
        return self.host_to_board_s(graph, n_queries) + self.board_to_host_s(total_steps)
