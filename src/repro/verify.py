"""One-call verification of protocol results against the model's contract.

Downstream users (and our own benches) repeatedly need the same audit:
*is this result a valid output of the problem the paper defines?*  That is
more than properness — the two-party model adds output-ownership rules
(each party reports its own edges in the edge-coloring problem, both
parties know all vertex colors in the vertex-coloring problem) and
palette constraints.  Each audit is the definition check from
:mod:`repro.graphs.validation` plus the contract checks on top of it —
declared palette, ownership and (Theorem 3) zero communication — all
against the original :class:`~repro.graphs.partition.EdgePartition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core.edge_coloring import EdgeColoringResult
from .core.vertex_coloring import VertexColoringResult
from .graphs.partition import EdgePartition
from .graphs.validation import edge_coloring_problems, vertex_coloring_problems

__all__ = ["VerificationReport", "verify_edge_result", "verify_vertex_result"]


@dataclass
class VerificationReport:
    """Outcome of a contract audit; falsy when any check failed."""

    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Record a violated check."""
        self.problems.append(message)

    @property
    def ok(self) -> bool:
        """True if every check passed."""
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok

    def raise_if_failed(self) -> None:
        """Raise ``AssertionError`` listing every violated check."""
        if self.problems:
            raise AssertionError(
                "verification failed:\n  - " + "\n  - ".join(self.problems)
            )


def verify_vertex_result(
    partition: EdgePartition,
    result: VertexColoringResult,
) -> VerificationReport:
    """Audit a Theorem 1 result against the ``(Δ+1)``-vertex contract."""
    graph = partition.graph
    num_colors = partition.max_degree + 1
    report = VerificationReport(
        vertex_coloring_problems(graph, result.colors, num_colors)
    )
    if result.num_colors != num_colors:
        report.fail(
            f"result declares palette {result.num_colors}, expected {num_colors}"
        )
    if result.leftover_size < 0 or result.leftover_size > graph.n:
        report.fail(f"implausible leftover size {result.leftover_size}")
    return report


def verify_edge_result(
    partition: EdgePartition,
    result: EdgeColoringResult,
    zero_communication: bool = False,
) -> VerificationReport:
    """Audit a Theorem 2/3 result against the edge-coloring contract.

    ``zero_communication`` additionally enforces Theorem 3's empty
    transcript and widens the palette to ``2Δ``.
    """
    delta = partition.max_degree
    num_colors = max(2 * delta if zero_communication else 2 * delta - 1, 1)
    report = VerificationReport()
    if result.alice_colors.keys() != partition.alice_edges:
        report.fail("Alice's reported edges differ from her input edges")
    if result.bob_colors.keys() != partition.bob_edges:
        report.fail("Bob's reported edges differ from his input edges")
    if result.num_colors != num_colors:
        report.fail(
            f"result declares palette {result.num_colors}, expected {num_colors}"
        )
    report.problems += edge_coloring_problems(
        partition.graph, result.colors, num_colors
    )
    transcript = result.transcript
    if zero_communication and transcript.total_bits != 0:
        report.fail(f"zero-communication protocol spent {transcript.total_bits} bits")
    if zero_communication and transcript.rounds != 0:
        report.fail(f"zero-communication protocol used {transcript.rounds} rounds")
    return report
