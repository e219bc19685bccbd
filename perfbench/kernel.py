"""Fixed pure-Python reference kernel used to measure host speed.

The kernel shares no code or state with cnotsynth, nor with the rest of
the benchmark, so that its amount of work never changes.  Its mix of work (dict
and set churn on small graphs, tuple-labelled heap searches, Python-int row
XORs, sorting and string building) resembles the interpreter-bound work of
the program, so host slowdowns that hit the program also hit the kernel.
"""
from __future__ import annotations

import heapq
import time
from collections import deque

_SIDE = 10
_ROWS = 40
_REPS = 8

#: Median wall seconds of ``time_kernel()`` on the reference host (2-vCPU
#: x86-64 cloud VM, CPython 3.11).  Timings are reported as
#: ``wall * K_NOMINAL_S / K_local``, i.e. in seconds of that host.
K_NOMINAL_S = 0.0440


def _grid_adjacency(side: int) -> dict[int, tuple[int, ...]]:
    adj = {}
    for v in range(side * side):
        r, c = divmod(v, side)
        nbrs = []
        if r:
            nbrs.append(v - side)
        if c:
            nbrs.append(v - 1)
        if c + 1 < side:
            nbrs.append(v + 1)
        if r + 1 < side:
            nbrs.append(v + side)
        adj[v] = tuple(nbrs)
    return adj


def _component_size(adj: dict[int, tuple[int, ...]], removed: frozenset[int], start: int) -> int:
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen and w not in removed:
                seen.add(w)
                queue.append(w)
    return len(seen)


def _heap_path(adj: dict[int, tuple[int, ...]], source: int, target: int) -> tuple[int, ...]:
    heap = [(0.0, 0, (source,))]
    settled = set()
    while heap:
        dist, hops, path = heapq.heappop(heap)
        v = path[-1]
        if v in settled:
            continue
        settled.add(v)
        if v == target:
            return path
        for w in adj[v]:
            if w not in settled:
                heapq.heappush(heap, (dist + 1.0 / (1 + (v ^ w) % 7), hops + 1, path + (w,)))
    return ()


def _int_rank(rows: list[int], width: int) -> int:
    rows = list(rows)
    rank = 0
    for col in range(width):
        bit = 1 << col
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & bit:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def _lcg_rows(count: int, width: int, state: int) -> list[int]:
    rows = []
    for _ in range(count):
        value = 0
        for _ in range(width // 16 + 1):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            value = (value << 16) | (state >> 48)
        rows.append(value & ((1 << width) - 1))
    return rows


def _kernel_unit() -> int:
    adj = _grid_adjacency(_SIDE)
    n = _SIDE * _SIDE
    total = 0
    cache: dict[frozenset[int], int] = {}
    for k in range(60):
        removed = frozenset(range(k % 7, n, 11 + k % 5))
        start = next(v for v in range(n) if v not in removed)
        size = _component_size(adj, removed, start)
        cache[removed] = size
        total += size
    for k in range(12):
        total += len(_heap_path(adj, k, n - 1 - 3 * k))
    total += _int_rank(_lcg_rows(_ROWS, _ROWS, 12345), _ROWS)
    pairs = sorted(((v * 37) % n, v) for v in range(n * 4))
    text = "\n".join(f"cx q[{a % 16}],q[{b % 16}];" for a, b in pairs)
    total += len(text) + len(cache)
    return total


def reference_kernel() -> int:
    """The fixed amount of interpreter work timed between ops; returns a checksum."""
    return sum(_kernel_unit() for _ in range(_REPS))


def time_kernel() -> float:
    """Wall seconds of one reference-kernel call."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0
