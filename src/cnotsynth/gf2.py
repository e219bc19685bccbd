"""GF(2) parity-matrix algebra for CNOT circuits, on Python-int rows.

A CNOT circuit on n qubits acts linearly on qubit parities.  The action is
captured by an n x n Boolean matrix: starting from the identity, every gate
CNOT(control, target) XORs the control row into the target row.  Row i,
column j is 1 iff the output parity of qubit i includes input qubit j.

Each row is one Python int whose bit j holds column j, so a row operation is
a single XOR and rank and solve share one bitwise elimination (``_basis``).
"""
from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np


class ParityMatrix:
    """Square GF(2) matrix; bit j of ``rows[r]`` is entry (r, j).

    The constructor takes any square 0/1 array-like (entries reduced mod 2);
    ``from_rows`` wraps int rows directly.  Only the array constructor and
    ``bits`` import numpy, so code on int rows never loads it.  Mutating
    operations (``row_xor``) act in place; ``rank`` and ``is_identity`` never
    modify the matrix.
    """

    __slots__ = ("rows",)

    def __init__(self, bits) -> None:
        import numpy as np

        arr = np.array(bits, dtype=np.uint8) % 2
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"parity matrix must be square and non-empty, got shape {arr.shape}")
        packed = np.packbits(arr, axis=1, bitorder="little")
        self.rows = [int.from_bytes(row.tobytes(), "little") for row in packed]

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "ParityMatrix":
        """Matrix over a copy of ``rows``; bit j of row r is entry (r, j)."""
        m = cls.__new__(cls)
        m.rows = list(rows)
        n = len(m.rows)
        if n < 1 or any(r < 0 or r >> n for r in m.rows):
            raise ValueError(f"expected 1 or more rows of {n} bits each")
        return m

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def bits(self) -> np.ndarray:
        """A fresh n x n uint8 array of the entries."""
        import numpy as np

        n = self.n
        width = (n + 7) // 8
        data = b"".join(r.to_bytes(width, "little") for r in self.rows)
        packed = np.frombuffer(data, dtype=np.uint8).reshape(n, width)
        return np.unpackbits(packed, axis=1, count=n, bitorder="little")

    @classmethod
    def identity(cls, n: int) -> "ParityMatrix":
        if n < 1:
            raise ValueError("qubit count must be >= 1")
        return cls.from_rows(1 << i for i in range(n))

    @classmethod
    def from_circuit(cls, gates: Iterable[tuple[int, int]], n: int) -> "ParityMatrix":
        """Build the parity matrix of a CNOT gate sequence.

        Args:
            gates: (control, target) pairs in temporal order.
            n: qubit count.

        Returns:
            The matrix obtained by applying ``row[target] ^= row[control]``
            to the identity, gate by gate.  Always invertible.
        """
        m = cls.identity(n)
        rows = m.rows
        for k, (control, target) in enumerate(gates):
            if not (0 <= control < n and 0 <= target < n):
                raise ValueError(f"gate {k}: qubit index out of range for n={n}: ({control},{target})")
            if control == target:
                raise ValueError(f"gate {k}: control and target coincide ({control})")
            rows[target] ^= rows[control]
        return m

    def row_xor(self, src: int, dst: int) -> "ParityMatrix":
        """XOR row ``src`` into row ``dst`` in place.  Involution per (src, dst)."""
        if src == dst:
            raise ValueError("row_xor requires src != dst")
        rows = self.rows
        n = len(rows)
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"row index out of range for n={n}: ({src},{dst})")
        rows[dst] ^= rows[src]
        return self

    def is_identity(self) -> bool:
        return all(r == 1 << i for i, r in enumerate(self.rows))

    def rank(self) -> int:
        return gf2_rank(self.rows)

    def copy(self) -> "ParityMatrix":
        return ParityMatrix.from_rows(self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ParityMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __repr__(self) -> str:
        n = self.n
        rows = ",".join("".join(str(r >> j & 1) for j in range(n)) for r in self.rows)
        return f"ParityMatrix({n}x{n}: {rows})"


def _reduce(basis: dict[int, tuple[int, int]], row: int, mask: int) -> tuple[int, int]:
    """Cancel the pivots of ``row`` against ``basis``, folding their row masks into ``mask``."""
    while row:
        entry = basis.get(row & -row)
        if entry is None:
            break
        row ^= entry[0]
        mask ^= entry[1]
    return row, mask


def _basis(rows: Sequence[int]) -> dict[int, tuple[int, int]]:
    """Echelon basis of ``rows`` keyed by pivot (each entry's lowest set bit).

    Row k joins only if it is independent of rows 0..k-1, as the value left
    after reduction by the earlier entries; every entry carries the mask of
    input rows whose XOR it is, so only independent rows ever appear in a mask.
    """
    basis: dict[int, tuple[int, int]] = {}
    for k, row in enumerate(rows):
        row, mask = _reduce(basis, row, 1 << k)
        if row:
            basis[row & -row] = (row, mask)
    return basis


def gf2_rank(rows: Sequence[int]) -> int:
    """GF(2) rank of int rows (bit j of a row is column j)."""
    return len(_basis(rows))


def solve_gf2(rows: Sequence[int], y: int) -> int | None:
    """Find a subset of ``rows`` whose XOR equals ``y``.

    Returns:
        A mask whose bit k selects ``rows[k]``, drawn only from rows that are
        independent of the rows before them (so the answer is unique), or
        ``None`` when ``y`` is outside the row span.
    """
    rest, mask = _reduce(_basis(rows), y, 0)
    return None if rest else mask


def random_invertible(n: int, seed: int) -> ParityMatrix:
    """Seeded random invertible matrix: identity hit by 5*n^2 row XORs."""
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    m = ParityMatrix.identity(n)
    if n == 1:
        return m
    rng = random.Random(seed)
    for _ in range(5 * n * n):
        src = rng.randrange(n)
        dst = rng.randrange(n - 1)
        if dst >= src:
            dst += 1
        m.row_xor(src, dst)
    return m
