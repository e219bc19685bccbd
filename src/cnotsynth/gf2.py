"""GF(2) parity-matrix algebra for CNOT circuits, on Python-int rows.

A CNOT circuit on n qubits acts linearly on qubit parities.  The action is
captured by an n x n Boolean matrix: starting from the identity, every gate
CNOT(control, target) XORs the control row into the target row.  Row i,
column j is 1 iff the output parity of qubit i includes input qubit j.

Each row is one Python int whose bit j holds column j, so a row operation is
one inline XOR on a row list, ``rows[target] ^= rows[control]``: the class
has no ``row_xor``.  Rank, solve and inverse share one bitwise elimination:
``_basis`` builds an echelon basis whose entries carry the masks of the
input rows they sum, and ``_reduce`` reads a vector's mask off it.
``synthesize`` calls ``gf2_inverse`` once per matrix, both to reject a
singular matrix and to seed the inverse it keeps next to its work rows.
``segment_and_synthesize`` needs no elimination: a CNOT run's inverse is
the matrix of the run reversed.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .arch import integer


class ParityMatrix:
    """Square GF(2) matrix; bit j of ``rows[r]`` is entry (r, j).

    The constructor takes n rows, each read as n entry bytes by ``bytes(row)``
    (lists of ints 0..255, uint8 or bool array rows) and reduced mod 2;
    ``from_rows`` wraps int rows directly and reads any other row by
    ``arch.integer``.  There is no ``row_xor``: callers XOR ``rows`` entries
    inline.  ``rank`` never modifies the matrix.
    """

    __slots__ = ("rows",)

    def __init__(self, bits) -> None:
        if getattr(bits, "ndim", 2) != 2:
            raise ValueError(f"parity matrix must be 2-D, got {bits.ndim} dimensions")
        try:
            # bytes(k) of an int row k would be k zero bytes, so such a row reads as empty.
            rows = [b"" if isinstance(row, int) else bytes(row) for row in bits]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"parity matrix rows must hold entries 0..255: {exc}") from None
        n = len(rows)
        widths = {len(row) for row in rows}
        if widths != {n}:
            raise ValueError(f"parity matrix must be square and non-empty, got {n} rows of {sorted(widths)} bytes")
        # Each byte becomes the ASCII digit of its parity; entry 0 is the last digit.
        self.rows = [int(row.translate(b"01" * 128)[::-1], 2) for row in rows]

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "ParityMatrix":
        """Matrix over a copy of ``rows``; bit j of row r is entry (r, j).

        A row that is not an int is read by ``arch.integer``, so numpy
        integer rows become Python ints and a float row is refused, naming
        its index and value (``row 1: 1.5 is not an integer``); an int row
        pays one type test, inside the range check.
        """
        m = cls.__new__(cls)
        m.rows = rows = list(rows)
        n = len(rows)
        if n < 1 or any(type(r) is not int or r < 0 or r >> n for r in rows):
            m.rows = rows = [integer(r, f"row {k}:") for k, r in enumerate(rows)]
            if n < 1 or any(r < 0 or r >> n for r in rows):
                raise ValueError(f"expected 1 or more rows of {n} bits each")
        return m

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "ParityMatrix":
        n = integer(n, "qubit count")
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

        Raises:
            ValueError: naming the first gate whose ids are not integers
                (``gate 0: qubit True is not an integer``), are out of range
                or coincide.  A gate whose ids are not both ints is read by
                ``arch.integer``, so an int id pays one type test and a
                ``bool`` is refused.
        """
        m = cls.identity(n)
        rows = m.rows
        for k, (control, target) in enumerate(gates):
            if type(control) is not int or type(target) is not int:
                control = integer(control, f"gate {k}: qubit")
                target = integer(target, f"gate {k}: qubit")
            if not (0 <= control < n and 0 <= target < n):
                raise ValueError(f"gate {k}: qubit index out of range for n={n}: ({control},{target})")
            if control == target:
                raise ValueError(f"gate {k}: control and target coincide ({control})")
            rows[target] ^= rows[control]
        return m

    def rank(self) -> int:
        return gf2_rank(self.rows)

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


def gf2_inverse(rows: Sequence[int]) -> list[int] | None:
    """Rows of the inverse of ``rows``, n rows of n bits each as in every
    ``ParityMatrix``; ``None`` when the matrix is singular.

    Row j of the inverse is the mask of the rows whose XOR is the unit
    vector ``1 << j``: ``solve_gf2(rows, 1 << j)``, read off one basis.  The
    matrix is invertible exactly when that basis has n pivots, and then
    every unit vector reduces to zero.
    """
    basis = _basis(rows)
    if len(basis) < len(rows):
        return None
    return [_reduce(basis, 1 << j, 0)[1] for j in range(len(rows))]
