"""The cover-colors protocol of Lemma 5.4.

One party (say Bob) must let Alice learn, for every vertex ``v`` with
``deg_B(v) ≤ Δ/2``, one color of Bob's palette still available at ``v``
under Bob's local coloring — using ``O(n)`` bits and a single message.

Bob's construction: since each low-degree vertex has ``≥ (Δ−1)/3`` of his
``Δ−1`` palette colors available, a double-counting argument yields a color
available for ``≥ 1/3`` of any set of low-degree vertices.  Bob greedily
picks such colors; the ``i``-th pick comes with a bitmap over the still
uncovered vertices, so total bitmap length is a geometric series ``≤ 3n``.

The builder takes the sparse side of availability: the colors *used* at
each vertex (at most ``deg(v) ≤ Δ/2`` of them).  It marks those in one
packed bit row per palette color and complements each row into that
color's cover mask, so building the masks costs ``O(m + Δ·n/8)``; each
greedy round is then ``Δ`` word-parallel AND + popcounts over ``n`` bits.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass

from ..comm.bits import gamma_cost, uint_cost

__all__ = ["CoverMessage", "build_cover_message", "decode_cover_message"]


@dataclass(frozen=True)
class CoverMessage:
    """The one-shot message of Lemma 5.4.

    ``colors[i]`` is the ``i``-th cover color; ``bitmaps[i]`` flags, over
    the vertices still uncovered before round ``i`` (in sorted order),
    which of them this color covers.
    """

    colors: tuple[int, ...]
    bitmaps: tuple[tuple[bool, ...], ...]
    nbits: int


def build_cover_message(
    low_vertices: Sequence[int],
    used: Mapping[int, Set[int]] | Sequence[Set[int]],
    palette: Sequence[int],
) -> CoverMessage:
    """Greedy third-covering of the low-degree vertices' available colors.

    ``used[v]`` holds the colors already on ``v``'s own edges; ``v`` may
    take any color of ``palette − used[v]``.  Each round picks the color
    available at the most uncovered vertices (first in palette order on
    ties).  Raises ``ValueError`` if some vertex has every palette color
    used (ruled out by the degree bound, Lemma 5.4) — a bug upstream.
    """
    base = sorted(low_vertices)
    palette_set = set(palette)
    for v in base:
        if palette_set <= used[v]:
            raise ValueError(f"vertex {v} has no available palette color")
    # One packed row per palette color flagging the positions of ``base``
    # where it is used; its complement is the color's cover mask.
    rows = {color: bytearray((len(base) + 7) // 8) for color in palette}
    for pos, v in enumerate(base):
        byte, bit = pos >> 3, 1 << (pos & 7)
        for color in used[v]:
            if color in rows:
                rows[color][byte] |= bit
    alive = (1 << len(base)) - 1
    covers = {c: alive & ~int.from_bytes(row, "little") for c, row in rows.items()}
    alive_positions = list(range(len(base)))
    colors: list[int] = []
    bitmaps: list[tuple[bool, ...]] = []
    nbits = 0
    while alive:
        best_color, best_count = None, -1
        for color in palette:
            count = (covers[color] & alive).bit_count()
            if count > best_count:
                best_color, best_count = color, count
        hits = covers[best_color]
        bits = f"{hits:0{len(base)}b}"[::-1]  # bits[pos] flags position pos
        flags = tuple(bits[pos] == "1" for pos in alive_positions)
        alive_positions = [p for p, hit in zip(alive_positions, flags) if not hit]
        colors.append(best_color)
        bitmaps.append(flags)
        nbits += uint_cost(max(palette)) + len(flags)
        alive &= ~hits
    nbits += gamma_cost(len(colors) + 1)  # announce the number of rounds
    return CoverMessage(tuple(colors), tuple(bitmaps), nbits)


def decode_cover_message(
    low_vertices: Sequence[int],
    message: CoverMessage,
) -> dict[int, int]:
    """Recover the vertex → color assignment from a cover message.

    ``low_vertices`` must be the same set the sender used (it is common
    knowledge after the degree bitmaps are exchanged in Algorithm 2).
    """
    uncovered = sorted(low_vertices)
    assignment: dict[int, int] = {}
    for color, flags in zip(message.colors, message.bitmaps):
        if len(flags) != len(uncovered):
            raise ValueError("cover message bitmap length mismatch")
        remaining = []
        for v, hit in zip(uncovered, flags):
            if hit:
                assignment[v] = color
            else:
                remaining.append(v)
        uncovered = remaining
    if uncovered:
        raise ValueError(f"cover message leaves vertices uncovered: {uncovered[:3]}")
    return assignment
