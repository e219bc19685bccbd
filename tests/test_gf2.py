import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix_bits, random_invertible, reference_gf2_inverse, reference_gf2_rank, reference_solve_gf2
from cnotsynth.arch import builtin
from cnotsynth.gf2 import ParityMatrix, gf2_inverse, gf2_rank, solve_gf2
from cnotsynth.mapping import Mapping
from cnotsynth.synth import synthesize


def mat(rows):
    return ParityMatrix(np.array(rows, dtype=np.uint8))


def row_int(row) -> int:
    """Int row of a 0/1 sequence: entry j becomes bit j."""
    return sum(1 << j for j, b in enumerate(row) if b)


def benchmark_bits(n: int, seed: int) -> np.ndarray:
    """A dense n x n uint8 array built the way the benchmark's set-up builds its matrices."""
    rng = random.Random(seed)
    rows = [rng.getrandbits(n) for _ in range(n)]
    return np.array([[(r >> j) & 1 for j in range(n)] for r in rows], dtype=np.uint8)


#: A 6 x 12 0/1 array; its even columns make a 6 x 6 matrix whose rows are strided views.
WIDE = np.random.default_rng(5).integers(0, 2, size=(6, 12), dtype=np.uint8)


class TestFromCircuit:
    def test_empty_circuit_is_identity(self):
        assert ParityMatrix.from_circuit([], 3) == ParityMatrix.identity(3)

    def test_single_gate(self):
        assert ParityMatrix.from_circuit([(0, 1)], 2) == mat([[1, 0], [1, 1]])

    def test_two_gates_in_order(self):
        # row1 ^= row0 then row0 ^= row1, applied to the identity by hand.
        assert ParityMatrix.from_circuit([(0, 1), (1, 0)], 2) == mat([[0, 1], [1, 1]])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ParityMatrix.from_circuit([(0, 2)], 2)

    def test_control_equals_target(self):
        with pytest.raises(ValueError, match="coincide"):
            ParityMatrix.from_circuit([(1, 1)], 2)

    @pytest.mark.parametrize("gates,message", [
        ([(0.0, 1)], "gate 0: qubit 0.0 is not an integer"),
        ([(0, 1), (1, 0.5)], "gate 1: qubit 0.5 is not an integer"),
        ([(0, "1")], "gate 0: qubit '1' is not an integer"),
    ], ids=["float-control", "float-target", "str-target"])
    def test_non_integral_id_names_its_gate(self, gates, message):
        with pytest.raises(ValueError) as exc:
            ParityMatrix.from_circuit(gates, 2)
        assert str(exc.value) == message

    def test_numpy_ids_build_the_int_matrix(self):
        gates = [(0, 1), (2, 0), (1, 2)]
        assert ParityMatrix.from_circuit(np.array(gates), 3) == ParityMatrix.from_circuit(gates, 3)

    def test_composition(self):
        first = [(0, 1), (2, 0)]
        second = [(1, 2), (0, 2)]
        combined = ParityMatrix.from_circuit(first + second, 3)
        m = ParityMatrix.from_circuit(first, 3)
        for c, t in second:
            m.rows[t] ^= m.rows[c]
        assert combined == m

    @given(st.integers(2, 6), st.integers(0, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_circuit_matrices_are_invertible(self, n, m, seed):
        import random

        rng = random.Random(seed)
        gates = []
        for _ in range(m):
            c = rng.randrange(n)
            t = rng.randrange(n - 1)
            gates.append((c, t + 1 if t >= c else t))
        assert ParityMatrix.from_circuit(gates, n).rank() == n


class TestRankIdentity:
    def test_identity(self):
        m = ParityMatrix.identity(4)
        assert m == ParityMatrix.identity(m.n) and m.rank() == 4

    def test_zeros_rank(self):
        assert gf2_rank([0, 0, 0]) == 0

    def test_equal_rows_rank_one(self):
        assert mat([[1, 1], [1, 1]]).rank() == 1

    def test_rank_does_not_mutate(self):
        m = mat([[1, 1], [1, 1]])
        m.rank()
        assert m == mat([[1, 1], [1, 1]])


class TestSolve:
    def test_identity_system(self):
        assert solve_gf2([0b001, 0b010, 0b100], 0b101) == 0b101

    def test_two_row_combination(self):
        # Rows [1,1,0] and [0,1,1] XOR to [1,0,1].
        assert solve_gf2([0b011, 0b110], 0b101) == 0b11

    def test_no_solution(self):
        assert solve_gf2([0b011], 0b100) is None

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_solution_rexors_to_target(self, rows, cols, seed):
        rng = random.Random(seed)
        a = [rng.getrandbits(cols) for _ in range(rows)]
        y = rng.getrandbits(cols)
        x = solve_gf2(a, y)
        if x is not None:
            acc = 0
            for k, row in enumerate(a):
                if x >> k & 1:
                    acc ^= row
            assert acc == y


def dependent_system(m: int, k: int, seed: int):
    """An m x k 0/1 system of rank at most ``seed % (min(m, k) + 1)``, plus a
    target that is in the row span for even seeds and random for odd ones."""
    rng = np.random.default_rng(seed)
    r = seed % (min(m, k) + 1)
    base = rng.integers(0, 2, size=(r, k), dtype=np.uint8)
    mix = rng.integers(0, 2, size=(m, r), dtype=np.uint8)
    a = (mix.astype(np.int64) @ base % 2).astype(np.uint8)
    # Overwrite a few rows with fresh random ones so that rank and row order vary.
    for row in rng.choice(m, size=int(rng.integers(0, m // 3 + 1)), replace=False):
        a[row] = rng.integers(0, 2, size=k, dtype=np.uint8)
    if seed % 2 == 0:
        y = rng.integers(0, 2, size=m, dtype=np.uint8).astype(np.int64) @ a % 2
    else:
        y = rng.integers(0, 2, size=k)
    return a, y.astype(np.uint8)


class TestAgainstNumpyReference:
    """The bitwise elimination returns exactly what the numpy Gauss-Jordan did."""

    @given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_solve_and_rank_match(self, m, k, seed):
        a, y = dependent_system(m, k, seed)
        rows = [row_int(row) for row in a]
        want = reference_solve_gf2(a, y)
        got = solve_gf2(rows, row_int(y))
        if want is None:
            assert got is None
        else:
            assert got == row_int(want)
        assert gf2_rank(rows) == reference_gf2_rank(a)

    @given(st.integers(1, 70), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_inverse_matches(self, n, seed):
        # Square systems of every rank: full rank only for some seeds.
        a, _ = dependent_system(n, n, seed)
        want = reference_gf2_inverse(a)
        got = gf2_inverse([row_int(row) for row in a])
        if want is None:
            assert got is None and reference_gf2_rank(a) < n
        else:
            assert got == [row_int(row) for row in want]

    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_inverse_of_invertible_matrices(self, n):
        assert gf2_inverse([1]) == [1]
        for seed in range(5):
            m = random_invertible(n, 500 + seed)
            got = gf2_inverse(m.rows)
            assert got == [row_int(row) for row in reference_gf2_inverse(matrix_bits(m))]
            # Row j of the inverse selects the rows of m whose XOR is the unit vector e_j.
            for j, x in enumerate(got):
                acc = 0
                for k, row in enumerate(m.rows):
                    if x >> k & 1:
                        acc ^= row
                assert acc == 1 << j
                assert x == solve_gf2(m.rows, 1 << j)

    @pytest.mark.parametrize("rows", [[0], [0b11, 0b11], [0b01, 0b10, 0b11], [0b001, 0b010, 0b000], [0b110, 0b101, 0b011]])
    def test_inverse_of_singular_matrices_is_none(self, rows):
        assert gf2_inverse(rows) is None
        assert reference_gf2_inverse([[r >> j & 1 for j in range(len(rows))] for r in rows]) is None

    def test_duplicate_rows_pick_the_first(self):
        # Rows 0 and 1 are equal: the earlier, independent one is chosen.
        assert solve_gf2([0b01, 0b01, 0b10], 0b11) == 0b101
        assert reference_solve_gf2([[1, 0], [1, 0], [0, 1]], [1, 1]).tolist() == [1, 0, 1]

    def test_empty_target(self):
        assert solve_gf2([0b1, 0b1], 0) == 0


class TestRandomInvertible:
    """The tests' random matrices (``conftest.random_invertible``): the
    parity matrix of a seeded random CNOT circuit is reproducible and
    invertible."""

    def test_deterministic(self):
        assert random_invertible(5, 42) == random_invertible(5, 42)

    @pytest.mark.parametrize("n,seed", [(2, 0), (4, 7), (8, 13), (16, 3)])
    def test_full_rank(self, n, seed):
        assert random_invertible(n, seed).rank() == n

    def test_requires_positive_size(self):
        with pytest.raises(ValueError):
            random_invertible(0, 1)


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            ParityMatrix([[1, 0, 1], [0, 1, 0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ParityMatrix.identity(0)

    def test_identity_reads_its_size_as_an_integer(self):
        assert ParityMatrix.identity(np.int64(3)) == ParityMatrix.identity(3)
        with pytest.raises(ValueError, match=r"^qubit count 2\.5 is not an integer$"):
            ParityMatrix.identity(2.5)

    def test_values_reduced_mod_2(self):
        assert ParityMatrix([[3, 0], [2, 1]]) == mat([[1, 0], [0, 1]])

    def test_rows_hold_entries_as_bits(self):
        m = mat([[1, 1, 0], [0, 0, 1], [1, 0, 1]])
        assert m.rows == [0b011, 0b100, 0b101]

    def test_from_rows_rejects_wide_or_negative_rows(self):
        with pytest.raises(ValueError):
            ParityMatrix.from_rows([0b1, 0b100])
        with pytest.raises(ValueError):
            ParityMatrix.from_rows([1, -1])
        with pytest.raises(ValueError):
            ParityMatrix.from_rows([])

    def test_from_rows_reads_numpy_rows_as_ints(self):
        m = random_invertible(5, 3)
        numpy_rows = ParityMatrix.from_rows(np.array(m.rows, dtype=np.int64))
        assert numpy_rows == m and all(type(r) is int for r in numpy_rows.rows)
        quito, mapping = builtin("quito"), Mapping((0, 2, 1, 3, 4))
        assert synthesize(numpy_rows, quito, mapping=mapping).gates == synthesize(m, quito, mapping=mapping).gates

    def test_from_rows_names_a_float_row(self):
        for row, name in [(1.5, r"1\.5"), (True, "True")]:
            with pytest.raises(ValueError, match=rf"^row 1: {name} is not an integer$"):
                ParityMatrix.from_rows([1, row])

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 130])
    def test_bits_round_trip(self, n):
        arr = np.random.default_rng(n).integers(0, 2, size=(n, n), dtype=np.uint8)
        m = ParityMatrix(arr)
        bits = matrix_bits(m)
        assert bits.dtype == np.uint8 and np.array_equal(bits, arr)
        assert ParityMatrix(bits) == m
        assert ParityMatrix.from_rows(m.rows) == m
        assert all(m.rows[r] >> j & 1 == arr[r, j] for r in range(n) for j in range(n))

    def test_constructor_copies_its_input(self):
        arr = np.eye(3, dtype=np.uint8)
        m = ParityMatrix(arr)
        arr[0, 1] = 1
        assert m == ParityMatrix.identity(m.n)

    @pytest.mark.parametrize("bits", [
        np.ascontiguousarray(WIDE[:, ::2]),
        WIDE[:, ::2].astype(bool),
        WIDE[:, ::2],
        WIDE[:, ::2].T,
        [[3, 0, 1], [2, 1, 3], [0, 3, 2]],
        benchmark_bits(64, 1),
    ], ids=["uint8", "bool", "strided-columns", "transposed", "list-holding-3", "benchmark-64x64-uint8"])
    def test_accepted_inputs_equal_from_rows(self, bits):
        want = ParityMatrix.from_rows(row_int(int(b) % 2 for b in row) for row in bits)
        assert ParityMatrix(bits) == want

    @pytest.mark.parametrize("bits", [
        [[1, 0], [1]],
        [],
        np.zeros((2, 2, 2), dtype=np.uint8),
        [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
        [[256, 0], [0, 1]],
        [[-1, 0], [0, 1]],
        np.eye(2, dtype=np.int64),
        np.eye(2, dtype=np.float64),
        [2, 2],
    ], ids=["ragged", "empty", "3-D-array", "3-D-list", "entry-256", "entry-minus-1", "int64",
            "float64", "int-rows"])
    def test_rejected_inputs(self, bits):
        with pytest.raises(ValueError):
            ParityMatrix(bits)
