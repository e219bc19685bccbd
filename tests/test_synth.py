import dataclasses
from collections import deque
import itertools
import random

import numpy as np
import pytest

from conftest import (
    inverse_aided_rows,
    matrix_bits,
    physical_matrix,
    random_connected_graph,
    random_invertible,
    reference_target_aided_rows,
    reference_verification_failure,
    statevector_equivalent,
    target_aided_rows_bruteforce,
    work_inverse,
    xor_rows,
)
from goldens import GAPPED_GRAPH, eliminations
from cnotsynth.arch import CouplingGraph, builtin, mask_vertices, remove_vertex
from cnotsynth.gf2 import ParityMatrix
from cnotsynth.mapping import Mapping, TabuConfig, admitted_mapping, optimize_mapping
from cnotsynth.circuit import CNOT, Circuit, OneQubit, random_cnot_circuit
from cnotsynth.synth import (
    circuit_failure,
    eliminate_column,
    eliminate_row,
    synthesize,
    verification_failure,
    verify_equivalence,
)

SMALL_CONFIG = TabuConfig(tabu_len=4, iterations=2, seed=0)


def complete_graph(n, err=0.0):
    return CouplingGraph(range(n), [(u, v, err) for u, v in itertools.combinations(range(n), 2)])


def matched_rows_matrix():
    """Frozen 5x5 example: layer 0 done, column 1 done, row 1 needs rows {3,4}.

    row1 ^ e1 = [0,0,1,0,1] and rows 3, 4 XOR to exactly that.
    """
    return ParityMatrix(
        [
            [1, 0, 0, 0, 0],
            [0, 1, 1, 0, 1],
            [0, 0, 1, 0, 0],
            [0, 0, 1, 1, 0],
            [0, 0, 0, 1, 1],
        ]
    )


class TestTargetAidedRows:
    def test_unit_row_gives_empty_set(self):
        assert reference_target_aided_rows(ParityMatrix.identity(4).rows, 2, 0b1111) == set()
        assert inverse_aided_rows(work_inverse(ParityMatrix.identity(4).rows), 2, 0b1111) == set()

    def test_matched_pair(self):
        m = matched_rows_matrix()
        residual = 0b11110  # layer 0 has left
        assert reference_target_aided_rows(m.rows, 1, residual) == {3, 4}
        assert target_aided_rows_bruteforce(m, 1, residual) == {3, 4}
        assert inverse_aided_rows(work_inverse(m.rows), 1, residual) == {3, 4}

    def test_bruteforce_guardrail(self):
        with pytest.raises(ValueError, match="limited"):
            target_aided_rows_bruteforce(ParityMatrix.identity(11), 0, (1 << 11) - 1)

    def test_singular_matrix_has_no_solution(self):
        m = ParityMatrix([[1, 1], [0, 0]])
        with pytest.raises(RuntimeError, match="no target-aided row set"):
            reference_target_aided_rows(m.rows, 0, 0b11)
        with pytest.raises(RuntimeError, match="no target-aided row set"):
            target_aided_rows_bruteforce(m, 0, 0b11)

    def test_xor_property_after_column_steps(self):
        # Drive random matrices through the layer loop on a complete graph and
        # compare the tracked inverse and the solve against subset
        # enumeration at every layer.
        for seed in range(25):
            n = 4 + seed % 5
            m = random_invertible(n, 3000 + seed)
            inv = work_inverse(m.rows)
            residual = complete_graph(n)
            for i in range(n):
                eliminate_column(m.rows, inv, residual, i, residual.vertex_mask)
                assert inv == work_inverse(m.rows)
                bits = matrix_bits(m)
                expected = bits[i].copy()
                expected[i] ^= 1
                got = inverse_aided_rows(inv, i, residual.vertex_mask)
                brute = target_aided_rows_bruteforce(m, i, residual.vertex_mask)
                assert got == brute == reference_target_aided_rows(m.rows, i, residual.vertex_mask)
                assert np.array_equal(xor_rows(bits, sorted(got)), expected)
                eliminate_row(m.rows, inv, residual, i, residual.vertex_mask)
                residual = remove_vertex(residual, i)
            assert m == ParityMatrix.identity(m.n)


class TestTrackedInverse:
    """On devices with spare qubits and id gaps, the tracked inverse names
    the target-aided rows that the per-layer solve finds
    (``reference_target_aided_rows``) after every column pass, and ``inv``
    stays the transposed inverse of the work rows after every pass.  The
    complete-graph loops of ``TestTargetAidedRows`` and acceptance
    criterion 6 also hold it to subset enumeration."""

    @staticmethod
    def _check(g, mapping, m):
        rows = physical_matrix(m, g, mapping).rows
        inv = work_inverse(rows)
        residual = g.vertex_mask
        for q in mapping.assign:
            eliminate_column(rows, inv, g, q, residual)
            assert inv == work_inverse(rows)
            aid = inverse_aided_rows(inv, q, residual)
            assert aid == reference_target_aided_rows(rows, q, residual)
            eliminate_row(rows, inv, g, q, residual)
            assert inv == work_inverse(rows)
            residual &= ~(1 << q)
        assert all(rows[q] == 1 << q for q in mapping.assign)

    @pytest.mark.parametrize("name,n", [("guadalupe", 12), ("grid(4,4)", 16), ("grid(4,4)", 9), ("gapped", 4)])
    def test_devices_with_and_without_ancillas(self, name, n):
        g = GAPPED_GRAPH if name == "gapped" else builtin(name)
        mapping = optimize_mapping(g, n, TabuConfig(iterations=0))
        for seed in range(4):
            self._check(g, mapping, random_invertible(n, 3200 + seed))

    @pytest.mark.parametrize("name,n", [("quito", 3), ("guadalupe", 12), ("grid(4,4)", 16), ("gapped", 3)])
    def test_synthesize_builds_the_transposed_inverse(self, name, n, monkeypatch):
        # Every pass that synthesize runs starts from the inverse of its rows,
        # spare qubits and ids that are not vertices included.
        import cnotsynth.synth

        g = GAPPED_GRAPH if name == "gapped" else builtin(name)
        passes = []
        for attr in ("eliminate_column", "eliminate_row"):
            real = getattr(cnotsynth.synth, attr)

            def checked(rows, inv, *args, real=real):
                assert inv == work_inverse(rows)
                passes.append(real)
                return real(rows, inv, *args)

            monkeypatch.setattr(cnotsynth.synth, attr, checked)
        m = random_invertible(n, 3300)
        assert verify_equivalence(m, synthesize(m, g, SMALL_CONFIG))
        assert len(passes) == 2 * n


class TestWrongInverse:
    """A tracked inverse that goes wrong can only make synthesis fail loudly,
    never return wrong gates."""

    @staticmethod
    def _flip_after_column(monkeypatch, layer, flip):
        """Run ``flip(inv, q, residual)`` after the column pass of the given layer."""
        import cnotsynth.synth

        real = cnotsynth.synth.eliminate_column
        calls = []

        def flipping(rows, inv, graph, q, residual):
            ops = real(rows, inv, graph, q, residual)
            if len(calls) == layer:
                flip(inv, q, residual)
            calls.append(q)
            return ops

        monkeypatch.setattr(cnotsynth.synth, "eliminate_column", flipping)

    @pytest.mark.parametrize("name,n", [("quito", 5), ("guadalupe", 12), ("grid(4,4)", 16)])
    @pytest.mark.parametrize("layer", [0, 1, 3])
    def test_flipped_aid_bit_raises(self, name, n, layer, monkeypatch):
        # The highest residual row joins or leaves the aid set of the layer's
        # row pass, so row q ends as its unit vector XOR that row.
        def flip(inv, q, residual):
            inv[max(mask_vertices(residual & ~(1 << q)))] ^= 1 << q

        self._flip_after_column(monkeypatch, layer, flip)
        with pytest.raises(RuntimeError, match=r"^row \d+ failed to reduce to a unit vector$"):
            synthesize(random_invertible(n, 3400 + layer), builtin(name), SMALL_CONFIG)

    @pytest.mark.parametrize("seed", range(40))
    def test_any_flipped_bit_fails_loudly_or_is_harmless(self, seed, monkeypatch):
        # A flip of any residual bit of any residual row: either a check
        # raises, or the flip touched only what no later pass reads (a spare
        # qubit's column, say) and the gates still verify.
        rng = random.Random(seed)
        g = builtin(rng.choice(["quito", "guadalupe", "tokyo"]))
        n = rng.randint(2, g.num_vertices)

        def flip(inv, q, residual):
            live = list(mask_vertices(residual))
            inv[rng.choice(live)] ^= 1 << rng.choice(live)

        self._flip_after_column(monkeypatch, rng.randrange(n), flip)
        m = random_invertible(n, 3500 + seed)
        try:
            res = synthesize(m, g, SMALL_CONFIG)
        except RuntimeError:
            return
        assert verify_equivalence(m, res)


class TestEliminateColumn:
    def test_worked_example_sequence(self):
        # Quito with logical->physical {0:Q0, 1:Q4, 2:Q3, 3:Q1, 4:Q2};
        # first column has ones at logical rows 0, 2, 4, i.e. qubits 0, 3, 2.
        g = builtin("quito")
        mapping = Mapping((0, 4, 3, 1, 2))
        bits = np.eye(5, dtype=np.uint8)
        bits[2, 0] = 1
        bits[4, 0] = 1
        m = physical_matrix(ParityMatrix(bits), g, mapping)
        ops = eliminate_column(m.rows, work_inverse(m.rows), g, 0, g.vertex_mask)
        # Logical row ops (4,3), (3,4), (3,2), (0,3) on their qubits.
        assert ops == [(2, 1), (1, 2), (1, 3), (0, 1)]
        assert matrix_bits(m)[:, 0].tolist() == [1, 0, 0, 0, 0]

    def test_unit_column_no_ops(self):
        m = ParityMatrix.identity(3)
        g = builtin("linear(3)")
        assert eliminate_column(m.rows, work_inverse(m.rows), g, 1, g.vertex_mask) == []

    def test_unit_column_builds_no_tree(self, monkeypatch):
        import cnotsynth.synth

        trees = []
        real = cnotsynth.synth.min_noise_steiner_tree

        def counted(*args):
            trees.append(args)
            return real(*args)

        monkeypatch.setattr(cnotsynth.synth, "min_noise_steiner_tree", counted)
        g = builtin("quito")
        rows = ParityMatrix.from_circuit([(1, 2), (3, 4)], 5).rows
        assert eliminate_column(rows, work_inverse(rows), g, 0, g.vertex_mask) == []
        assert trees == []
        # A column with another 1 still builds its tree.
        assert eliminate_column(rows, work_inverse(rows), g, 1, g.vertex_mask) == [(1, 2)]
        assert len(trees) == 1

    def test_zero_column_is_singular(self):
        g = builtin("quito")
        rows = [0b00001, 0b00010, 0b01000, 0b01000, 0b10000]
        with pytest.raises(RuntimeError, match=r"^column 2 is all zeros; matrix is singular$"):
            eliminate_column(rows, [0b00001, 0b00010, 0, 0, 0b10000], g, 2, g.vertex_mask)

    def test_outside_qubits_named_in_ascending_order(self):
        g = builtin("quito")
        rows = ParityMatrix.from_circuit([(0, 3), (0, 4)], 5).rows
        with pytest.raises(
            RuntimeError, match=r"^qubits \[3, 4\] outside residual graph; mapping replay invariant violated$"
        ):
            eliminate_column(rows, work_inverse(rows), g, 0, 0b00111)

    @pytest.mark.parametrize("seed", range(10))
    def test_postcondition_on_linear5(self, seed):
        m = random_invertible(5, 7000 + seed)
        g = builtin("linear(5)")
        ops = eliminate_column(m.rows, work_inverse(m.rows), g, 0, g.vertex_mask)
        col = matrix_bits(m)[:, 0]
        assert col[0] == 1 and col.sum() == 1
        for c, t in ops:
            assert g.has_edge(c, t)


class TestEliminateRow:
    def test_chain_with_steiner_point(self):
        # Row 0 needs row 2; vertex 1 hosts a helper row outside the aid set.
        m = ParityMatrix([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
        g = builtin("linear(3)")
        ops = eliminate_row(m.rows, work_inverse(m.rows), g, 0, g.vertex_mask)
        assert ops == [(1, 0), (2, 1), (1, 0)]
        assert matrix_bits(m)[0].tolist() == [1, 0, 0]

    def test_unit_row_no_ops(self):
        m = ParityMatrix.identity(4)
        g = builtin("linear(4)")
        assert eliminate_row(m.rows, work_inverse(m.rows), g, 2, g.vertex_mask) == []

    @pytest.mark.parametrize("gates", [[(0, 1), (1, 0)], [(2, 0), (0, 1)]])
    def test_column_not_unit_after_row_pass_raises(self, gates):
        # Column 0 is not unit: its one 1 sits in row 1, not row 0, or it
        # has two 1s.  The row pass cannot mend it, and the check says so.
        g = builtin("quito")
        rows = ParityMatrix.from_circuit(gates, 5).rows
        with pytest.raises(RuntimeError, match=r"^column 0 failed to reduce to a unit vector$"):
            eliminate_row(rows, work_inverse(rows), g, 0, g.vertex_mask)

    @pytest.mark.parametrize("seed", range(10))
    def test_postcondition_preserves_earlier_layers(self, seed):
        n = 6
        m = random_invertible(n, 8000 + seed)
        inv = work_inverse(m.rows)
        residual = builtin("linear(6)")
        for i in range(n):
            ops = eliminate_column(m.rows, inv, residual, i, residual.vertex_mask)
            ops += eliminate_row(m.rows, inv, residual, i, residual.vertex_mask)
            # ops must sit on residual-graph edges at emission time
            for c, t in ops:
                assert residual.has_edge(c, t)
            # completed block is unit and stays unit
            done = i + 1
            bits = matrix_bits(m)
            assert np.array_equal(bits[:done, :done], np.eye(done, dtype=np.uint8))
            assert not bits[:done, done:].any()
            assert not bits[done:, :done].any()
            residual = remove_vertex(residual, i)
        assert m == ParityMatrix.identity(m.n)

    @pytest.mark.parametrize("seed", range(6))
    def test_ops_on_residual_edges_nonlinear_device(self, seed):
        g = builtin("guadalupe")
        n = g.num_vertices
        m = random_invertible(n, 8500 + seed)
        from cnotsynth.mapping import MappingSearch, initial_mapping

        search = MappingSearch(g, n)
        mapping = Mapping(initial_mapping(search, random.Random(seed), min(search.keys)))
        m = physical_matrix(m, g, mapping)
        inv = work_inverse(m.rows)
        residual = g
        for q in mapping.assign:
            ops = eliminate_column(m.rows, inv, residual, q, residual.vertex_mask)
            ops += eliminate_row(m.rows, inv, residual, q, residual.vertex_mask)
            for c, t in ops:
                assert residual.has_edge(c, t)
            residual = remove_vertex(residual, q)
        assert m == ParityMatrix.identity(m.n)


class TestResidualMaskElimination:
    """Elimination inside a vertex mask emits the ops it emits on the
    residual graph rebuilt by ``remove_vertex``."""

    @staticmethod
    def _check(g, mapping, m):
        m = physical_matrix(m, g, mapping)
        masked, rebuilt = list(m.rows), list(m.rows)
        masked_inv, rebuilt_inv = work_inverse(m.rows), work_inverse(m.rows)
        residual, residual_graph = g.vertex_mask, g
        for q in mapping.assign:
            for eliminate in (eliminate_column, eliminate_row):
                got = eliminate(masked, masked_inv, g, q, residual)
                assert got == eliminate(rebuilt, rebuilt_inv, residual_graph, q, residual_graph.vertex_mask)
            residual &= ~(1 << q)
            residual_graph = remove_vertex(residual_graph, q)
        assert masked == rebuilt == ParityMatrix.identity(len(masked)).rows

    @pytest.mark.parametrize("name", ["quito", "guadalupe", "tokyo", "grid(4,4)"])
    def test_builtin_devices(self, name):
        from cnotsynth.mapping import optimize_mapping

        g = builtin(name)
        mapping = optimize_mapping(g, g.num_vertices, TabuConfig(iterations=0))
        for seed in range(3):
            self._check(g, mapping, random_invertible(g.num_vertices, 8700 + seed))

    @pytest.mark.parametrize("size", [2, 5, 9, 14])
    def test_random_graphs(self, size):
        from cnotsynth.mapping import optimize_mapping

        for seed in range(3):
            g = random_connected_graph(size, 8800 + size + seed)
            mapping = optimize_mapping(g, size, TabuConfig(iterations=0))
            self._check(g, mapping, random_invertible(size, 8900 + seed))

    def test_qubit_outside_mask_detected(self):
        m = ParityMatrix.from_circuit([(0, 4)], 5)
        with pytest.raises(RuntimeError, match="residual"):
            eliminate_column(m.rows, work_inverse(m.rows), builtin("quito"), 0, 0b01111)


class TestMatchesRowIndexedElimination:
    """Gate lists once compared with those of the extended-logical-order
    elimination that physical-qubit indexing replaced.  The
    ``eliminations`` golden cases now pin them, since the tree and child
    order decide them.  Whatever that order, both checkers pass each one,
    and on devices of at most 10 qubit ids it moves a random state as the
    original circuit, moved through the mapping, does."""

    @staticmethod
    def check(*case):
        for g, mapping, seed, m, gates in eliminations(*case):
            assert verification_failure(m, g, mapping, gates) is None
            assert reference_verification_failure(m, g, mapping, gates) is None
            if g.width <= 10:
                # random_invertible(n, seed) is the matrix of this circuit.
                original = random_cnot_circuit(m.n, 5 * m.n * m.n, seed)
                assert statevector_equivalent(original, Circuit(g.width, gates, clbits=m.n), mapping, seed)

    @pytest.mark.parametrize("name", ["quito", "guadalupe", "tokyo", "grid(4,4)", "linear(7)"])
    def test_builtin_devices(self, name):
        self.check("full", name)

    @pytest.mark.parametrize("name,n", [("quito", 3), ("guadalupe", 12), ("guadalupe", 7), ("tokyo", 9),
                                        ("grid(4,4)", 10), ("linear(7)", 4), ("grid(8,8)", 20)])
    def test_partial_mappings(self, name, n):
        self.check("partial", name, n)

    @pytest.mark.parametrize("size", range(2, 15))
    def test_random_graphs(self, size):
        self.check("random", size)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_vertex_ids_with_gaps(self, n):
        self.check("gapped", n)


class TestMatchesLogicalOrderChecker:
    """The physical-qubit checker passes exactly the gate lists that the
    extended-logical-order checker it replaced
    (``reference_verification_failure``) passes: synthesized outputs and
    mutations of them."""

    @staticmethod
    def _mutants(gates, g, rng):
        edges = sorted(g.edge_error)
        u, v = rng.choice(edges)
        extra = CNOT(u, v) if rng.random() < 0.5 else CNOT(v, u)
        yield gates + (extra,)
        k = rng.randrange(len(gates) + 1)
        yield gates[:k] + (extra, extra) + gates[k:]  # a cancelling pair passes
        if gates:
            yield gates[:-1]
            k = rng.randrange(len(gates))
            yield gates[:k] + gates[k + 1:]
            k = rng.randrange(len(gates))
            yield gates[:k + 1] + gates[k:]

    def _check(self, g, n, seeds, iterations=0):
        mapping = optimize_mapping(g, n, TabuConfig(iterations=iterations, seed=0))
        for seed in seeds:
            m = random_invertible(n, seed)
            gates = synthesize(m, g, mapping=mapping).gates
            assert verification_failure(m, g, mapping, gates) is None
            assert reference_verification_failure(m, g, mapping, gates) is None
            for mutant in self._mutants(gates, g, random.Random(seed)):
                new = verification_failure(m, g, mapping, mutant)
                old = reference_verification_failure(m, g, mapping, mutant)
                assert (new is None) == (old is None), (mutant, new, old)

    @pytest.mark.parametrize("name", ["quito", "guadalupe", "tokyo", "grid(4,4)", "linear(7)"])
    def test_builtin_devices(self, name):
        g = builtin(name)
        self._check(g, g.num_vertices, range(9600, 9603), iterations=1)

    @pytest.mark.parametrize("name,n", [("quito", 3), ("guadalupe", 12), ("tokyo", 9), ("grid(4,4)", 10)])
    def test_partial_mappings(self, name, n):
        self._check(builtin(name), n, range(9700, 9703))

    @pytest.mark.parametrize("size", range(2, 15))
    def test_random_graphs(self, size):
        for seed in range(2):
            g = random_connected_graph(size, 9800 + size + seed)
            for n in sorted({size, max(2, size // 2)}):
                self._check(g, n, [9900 + seed])

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_vertex_ids_with_gaps(self, n):
        self._check(GAPPED_GRAPH, n, range(9950, 9956), iterations=1)

    def test_a_spare_only_gate_passes_both(self):
        # CNOT(3, 4) touches only spare qubits, which stay clean of logical ones.
        g, mapping, m = builtin("quito"), Mapping((2, 0)), ParityMatrix.identity(2)
        assert verification_failure(m, g, mapping, [CNOT(3, 4)]) is None
        assert reference_verification_failure(m, g, mapping, [CNOT(3, 4)]) is None


def _optimal_counts(g):
    """Fewest coupling-edge CNOTs realizing each parity matrix on ``g``, by
    breadth-first search from the identity; matrices are tuples of int rows
    indexed by physical qubit."""
    moves = [(c, t) for u, v in g.edge_error for c, t in ((u, v), (v, u))]
    start = tuple(1 << p for p in range(g.width))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        rows = queue.popleft()
        for c, t in moves:
            nxt = list(rows)
            nxt[t] ^= rows[c]
            nxt = tuple(nxt)
            if nxt not in dist:
                dist[nxt] = dist[rows] + 1
                queue.append(nxt)
    return dist


class TestFourQubitOptimum:
    """Every 4-qubit parity matrix on three 4-qubit devices, against the exact
    optimum under the same default mapping."""

    @pytest.mark.parametrize("g,assign,optimal_mean,mean_bound,gap_bound", [
        (builtin("linear(4)"), (0, 1, 2, 3), 9.12, 11.29, 11),
        (CouplingGraph(range(4), [(0, 1, 0.01), (0, 2, 0.01), (0, 3, 0.01)], name="star"),
         (1, 2, 0, 3), 7.76, 10.26, 11),
        (CouplingGraph(range(4), [(0, 1, 0.01), (1, 2, 0.01), (2, 3, 0.01), (0, 3, 0.01)], name="ring"),
         (0, 1, 2, 3), 6.77, 9.74, 12),
    ], ids=["linear(4)", "star", "ring"])
    def test_all_of_gl4(self, g, assign, optimal_mean, mean_bound, gap_bound):
        mapping = optimize_mapping(g, 4)
        assert mapping.assign == assign
        dist = _optimal_counts(g)
        assert len(dist) == 20160  # |GL(4,2)|
        total_optimal = total = worst = 0
        for physical, optimal in dist.items():
            # Logical row r is physical row assign[r] with bit assign[j] moved to bit j.
            m = ParityMatrix.from_rows(
                [sum(1 << j for j, p in enumerate(assign) if physical[q] >> p & 1) for q in assign])
            gates = synthesize(m, g, mapping=mapping).gates
            assert verification_failure(m, g, mapping, gates) is None
            assert reference_verification_failure(m, g, mapping, gates) is None
            if gates:
                assert verification_failure(m, g, mapping, gates[:-1]) is not None
                assert reference_verification_failure(m, g, mapping, gates[:-1]) is not None
            assert len(gates) >= optimal
            total_optimal += optimal
            total += len(gates)
            worst = max(worst, len(gates) - optimal)
        assert round(total_optimal / len(dist), 2) == optimal_mean
        assert round(total / len(dist), 2) <= mean_bound
        assert worst <= gap_bound


class TestSynthesize:
    def test_identity_gives_no_gates(self):
        res = synthesize(ParityMatrix.identity(5), builtin("quito"), SMALL_CONFIG)
        assert res.gates == () and res.cnot_count == 0 and res.depth == 0
        assert verify_equivalence(ParityMatrix.identity(5), res)

    def test_single_gate_on_linear2(self):
        m = ParityMatrix.from_circuit([(0, 1)], 2)
        res = synthesize(m, builtin("linear(2)"), SMALL_CONFIG)
        assert res.cnot_count == 1
        assert verify_equivalence(m, res)

    def test_rejects_singular_matrix(self):
        with pytest.raises(ValueError, match="invertible"):
            synthesize(ParityMatrix([[1, 1], [1, 1]]), builtin("linear(2)"), SMALL_CONFIG)

    def test_rejects_oversized_matrix(self):
        with pytest.raises(ValueError, match="qubits"):
            synthesize(ParityMatrix.identity(6), builtin("quito"), SMALL_CONFIG)

    def test_rejects_disconnected_graph(self):
        g = CouplingGraph(range(4), [(0, 1, 0.01), (2, 3, 0.01)])
        with pytest.raises(ValueError, match="connected"):
            synthesize(ParityMatrix.identity(4), g, SMALL_CONFIG)
        # A caller's mapping fails the replay, whose first residual is the whole device.
        for assign in [(0,), (0, 1), (0, 1, 2, 3)]:
            with pytest.raises(ValueError, match="removal-replay"):
                synthesize(ParityMatrix.identity(len(assign)), g, mapping=Mapping(assign))

    def test_terminal_outside_residual_detected(self):
        # Feeding a residual graph that lost a needed qubit must fail loudly.
        m = ParityMatrix.from_circuit([(0, 4)], 5)
        residual = remove_vertex(builtin("quito"), 4)
        with pytest.raises(RuntimeError, match="residual"):
            eliminate_column(m.rows, work_inverse(m.rows), residual, 0, residual.vertex_mask)

    def test_rejects_invalid_mapping(self):
        # Removing vertex 0 first strands nothing on quito, but removing 1 does.
        bad = Mapping((1, 0, 2, 3, 4))
        m = random_invertible(5, 1)
        with pytest.raises(ValueError, match="removal-replay"):
            synthesize(m, builtin("quito"), SMALL_CONFIG, mapping=bad)

    def test_gates_are_reverse_of_recorded_ops(self):
        g = builtin("quito")
        m = random_invertible(5, 77)
        res = synthesize(m, g, SMALL_CONFIG)
        work = physical_matrix(m, g, res.mapping)
        inv = work_inverse(work.rows)
        residual = g.vertex_mask
        recorded = []
        for q in res.mapping.assign:
            recorded += eliminate_column(work.rows, inv, g, q, residual)
            recorded += eliminate_row(work.rows, inv, g, q, residual)
            residual &= ~(1 << q)
        assert work == ParityMatrix.identity(work.n)
        assert [(gate.control, gate.target) for gate in res.gates] == recorded[::-1]

    @pytest.mark.parametrize("name,seeds", [("quito", range(8)), ("guadalupe", range(6)), ("tokyo", range(4))])
    def test_random_circuits_verify_and_meet_bound(self, name, seeds):
        g = builtin(name)
        n = g.num_vertices
        for seed in seeds:
            circ = random_cnot_circuit(n, 60, seed=seed)
            m = ParityMatrix.from_circuit(circ.cnot_pairs(), n)
            res = synthesize(m, g, SMALL_CONFIG)
            assert verify_equivalence(m, res)
            assert res.cnot_count <= 2 * n * n
            for gate in res.gates:
                assert g.has_edge(gate.control, gate.target)

    def test_deterministic(self):
        g = builtin("guadalupe")
        m = random_invertible(16, 5)
        a = synthesize(ParityMatrix.from_rows(m.rows), g, SMALL_CONFIG)
        b = synthesize(ParityMatrix.from_rows(m.rows), g, SMALL_CONFIG)
        assert a.gates == b.gates and a.mapping == b.mapping

    def test_input_matrix_unchanged(self):
        m = random_invertible(5, 9)
        snapshot = ParityMatrix.from_rows(m.rows)
        synthesize(m, builtin("quito"), SMALL_CONFIG)
        assert m == snapshot

    @pytest.mark.parametrize("name", ["quito", "linear(5)"])
    def test_fewer_logical_than_physical(self, name):
        g = builtin(name)
        circ = random_cnot_circuit(3, 30, seed=21)
        m = ParityMatrix.from_circuit(circ.cnot_pairs(), 3)
        res = synthesize(m, g, SMALL_CONFIG)
        assert verify_equivalence(m, res)
        for gate in res.gates:
            assert g.has_edge(gate.control, gate.target)

    @pytest.mark.parametrize("seed", range(5))
    def test_on_random_devices(self, seed):
        g = random_connected_graph(9, 4000 + seed)
        n = g.num_vertices
        m = random_invertible(n, seed)
        res = synthesize(m, g, SMALL_CONFIG)
        assert verify_equivalence(m, res)

    def test_device_beyond_hamiltonian_guardrail(self):
        # A 36-qubit device exceeds the 32-vertex search guardrail: the path
        # shortcut is tried only once at most 32 qubits remain unmapped.
        g = builtin("grid(6,6)")
        circ = random_cnot_circuit(36, 50, seed=3)
        m = ParityMatrix.from_circuit(circ.cnot_pairs(), 36)
        res = synthesize(m, g, TabuConfig(tabu_len=3, iterations=1, seed=0))
        assert verify_equivalence(m, res)


class TestClassicalRegisterWidth:
    """``circuit_failure``, the library's checker, compares the classical
    register widths itself, after every gate has matched, so it agrees with
    ``cnotsynth verify`` on an output that declares a wider register."""

    def test_wider_register_is_reported_after_the_gates(self):
        from cnotsynth.circuit import parse_qasm, segment_and_synthesize

        g = builtin("quito")
        original = parse_qasm("qreg q[3]; creg c[3]; h q[0]; cx q[0],q[1]; measure q[0] -> c[2];")
        out, mapping = segment_and_synthesize(original, g)
        assert circuit_failure(original, out, g, mapping) is None
        wide = Circuit(out.n, out.gates, 9)
        assert circuit_failure(original, wide, g, mapping) == "classical register has 9 bits, original has 3"
        # A gate mismatch is still the message reported first.
        failure = circuit_failure(original, Circuit(out.n, out.gates[:-1], 9), g, mapping)
        assert failure is not None and failure.startswith("gate ")


class TestOneRunMatchesSynthesize:
    """A CNOT-only circuit is one run, and the run reversed builds the one
    inverse that ``gf2_inverse`` finds, so ``segment_and_synthesize`` emits
    exactly the gates that ``synthesize`` emits for the circuit's matrix under
    the same mapping; ``cnotsynth bench`` compiles through the former."""

    @pytest.mark.parametrize("name,n", [
        ("quito", 5), ("guadalupe", 16), ("guadalupe", 12), ("tokyo", 20), ("grid(4,4)", 16), ("gapped", 4),
    ])
    def test_same_gates(self, name, n):
        from cnotsynth.circuit import segment_and_synthesize

        g = GAPPED_GRAPH if name == "gapped" else builtin(name)
        mapping = optimize_mapping(g, n, TabuConfig(iterations=0))
        for seed, size in enumerate((0, 1, n, 10 * n)):
            circ = random_cnot_circuit(n, size, seed=4100 + seed)
            out, used = segment_and_synthesize(circ, g, mapping=mapping)
            res = synthesize(ParityMatrix.from_circuit(circ.cnot_pairs(), n), g, mapping=mapping)
            assert used == res.mapping == mapping
            assert out.gates == res.gates
            assert size or out.gates == ()


class TestCallerMappingIds:
    """A caller's mapping may hold integer ids of any type: numpy's give the
    gates that Python ints give, and a bad mapping (a non-integral id among
    them) gets the same verdict from synthesis and both checkers."""

    @pytest.mark.parametrize("name", ["quito", "grid(8,8)"])
    def test_numpy_ids_synthesize_like_ints(self, name):
        g = builtin(name)
        n = g.num_vertices
        m = random_invertible(n, 4100)
        mapping = optimize_mapping(g, n, TabuConfig(iterations=0))
        numpy_mapping = Mapping(tuple(np.array(mapping.assign)))
        assert isinstance(numpy_mapping.assign[0], np.integer)
        res = synthesize(m, g, mapping=numpy_mapping)
        assert res.gates == synthesize(m, g, mapping=mapping).gates
        assert all(type(p) is int for p in res.mapping.assign)
        assert verify_equivalence(m, res)

    def test_numpy_ids_segment_like_ints(self):
        from cnotsynth.circuit import Measure, segment_and_synthesize

        g = builtin("guadalupe")
        mapping = optimize_mapping(g, 12, TabuConfig(iterations=0))
        rng = random.Random(4200)
        gates = []
        for _ in range(6):
            gates += [CNOT(*rng.sample(range(12), 2)) for _ in range(rng.randint(3, 8))]
            gates.append(OneQubit(rng.choice("hxz"), rng.randrange(12)))
        circ = Circuit(12, tuple(gates) + tuple(Measure(q) for q in range(12)))
        out, used = segment_and_synthesize(circ, g, mapping=Mapping(tuple(np.array(mapping.assign))))
        assert out == segment_and_synthesize(circ, g, mapping=mapping)[0]
        assert all(type(p) is int for p in used.assign)

    def test_float_id_is_refused(self):
        with pytest.raises(ValueError, match=r"^mapping id 0\.0 is not an integer$"):
            synthesize(ParityMatrix.identity(2), builtin("quito"), mapping=Mapping((0.0, 1.0)))

    @pytest.mark.parametrize("name", ["quito", "grid(8,8)"])
    def test_checkers_read_numpy_ids_like_ints(self, name):
        from cnotsynth.circuit import segment_and_synthesize

        g = builtin(name)
        n = g.num_vertices
        mapping = optimize_mapping(g, n, TabuConfig(iterations=0))
        numpy_mapping = Mapping(tuple(np.array(mapping.assign)))
        circ = random_cnot_circuit(n, 4 * n, seed=4300)
        m = ParityMatrix.from_circuit(circ.cnot_pairs(), n)
        out, _ = segment_and_synthesize(circ, g, mapping=mapping)
        res = synthesize(m, g, mapping=mapping)
        # A sound output and one short of its last gate: both verdicts match the int ids'.
        for gates in (res.gates, res.gates[:-1]):
            want = verification_failure(m, g, mapping, gates)
            assert verification_failure(m, g, numpy_mapping, gates) == want
            assert verify_equivalence(m, dataclasses.replace(res, gates=gates, mapping=numpy_mapping)) is (want is None)
        for output in (out, Circuit(out.n, out.gates[:-1])):
            assert circuit_failure(circ, output, g, numpy_mapping) == circuit_failure(circ, output, g, mapping)
        assert circuit_failure(circ, out, g, numpy_mapping) is None
        assert verification_failure(m, g, mapping, res.gates[:-1]) is not None

    @pytest.mark.parametrize("assign,want", [
        ((0.0, 1.0), "mapping id 0.0 is not an integer"),
        ((0, 1, 2), "mapping covers 3 qubits, 2 needed"),
        ((0, 7), "mapping uses vertices outside the device"),
        ((0, True), "mapping id True is not an integer"),
    ], ids=["float-id", "wrong-count", "off-device", "bool-id"])
    def test_one_verdict_per_bad_mapping(self, assign, want):
        from cnotsynth.circuit import segment_and_synthesize

        g, bad = builtin("quito"), Mapping(assign)
        for synthesis in (
            lambda: synthesize(ParityMatrix.identity(2), g, mapping=bad),
            lambda: segment_and_synthesize(Circuit(2, (CNOT(0, 1),)), g, mapping=bad),
        ):
            with pytest.raises(ValueError) as exc:
                synthesis()
            assert str(exc.value) == want
        assert verification_failure(ParityMatrix.identity(2), g, bad, []) == want
        assert circuit_failure(Circuit(2, ()), Circuit(5, ()), g, bad) == want

    def test_circuit_failure_admits_the_mapping_once(self, monkeypatch):
        from cnotsynth import synth
        from cnotsynth.circuit import segment_and_synthesize

        calls = []

        def counted(*args):
            calls.append(args)
            return admitted_mapping(*args)

        g = builtin("quito")
        gates = []
        for r in range(6):
            gates += [CNOT(r % 3, (r + 1) % 3), OneQubit("h", r % 3)]
        circ = Circuit(3, tuple(gates))
        out, mapping = segment_and_synthesize(circ, g, SMALL_CONFIG)
        monkeypatch.setattr(synth, "admitted_mapping", counted)
        assert circuit_failure(circ, out, g, mapping) is None
        assert circuit_failure(circ, Circuit(out.n, out.gates[:-1]), g, mapping) is not None
        assert len(calls) == 2


class TestVerifyEquivalence:
    @pytest.mark.parametrize("check", [
        lambda q: circuit_failure(Circuit(3, (CNOT(0, 1),)), Circuit(5, (CNOT(3, 4),)), q, Mapping((0, 1, 7))),
        lambda q: circuit_failure(Circuit(3, (OneQubit("h", 2),)), Circuit(5, (OneQubit("h", 2),)), q, Mapping((0, 1))),
        lambda q: circuit_failure(Circuit(3, ()), Circuit(5, ()), q, Mapping((0, 1))),
        lambda q: verification_failure(ParityMatrix.identity(3), q, Mapping((0, 1)), []),
    ], ids=["vertex-outside-device", "qubit-unplaced-before-a-gate", "qubit-unplaced-empty", "gate-list-unplaced"])
    def test_bad_mapping_is_a_failure(self, check):
        failure = check(builtin("quito"))
        assert failure is not None and "mapping" in failure

    def test_identity_and_empty(self):
        res = synthesize(ParityMatrix.identity(5), builtin("quito"), SMALL_CONFIG)
        assert verify_equivalence(ParityMatrix.identity(5), res)

    def test_detects_missing_gate(self):
        g = builtin("quito")
        m = random_invertible(5, 31)
        res = synthesize(m, g, SMALL_CONFIG)
        assert res.cnot_count > 0
        broken = dataclasses.replace(res, gates=res.gates[:-1])
        assert not verify_equivalence(m, broken)
        assert "differs" in verification_failure(m, g, res.mapping, broken.gates)

    def test_detects_non_edge_gate(self):
        from cnotsynth.circuit import CNOT

        g = builtin("quito")
        m = random_invertible(5, 31)
        res = synthesize(m, g, SMALL_CONFIG)
        tampered = dataclasses.replace(res, gates=res.gates + (CNOT(0, 4),))
        assert "not a coupling edge" in verification_failure(m, g, res.mapping, tampered.gates)

    def test_detects_ancilla_leaks(self):
        # Two logical qubits on quito under the identity mapping; the spare
        # physical qubits 2, 3 and 4 are the ancilla rows.
        from cnotsynth.circuit import CNOT

        g, mapping, m = builtin("quito"), Mapping((0, 1)), ParityMatrix.identity(2)
        assert verification_failure(m, g, mapping, [CNOT(1, 2), CNOT(1, 2)]) is None
        assert verification_failure(m, g, mapping, [CNOT(2, 1)]) == "row 1 depends on ancilla qubits"
        assert verification_failure(m, g, mapping, [CNOT(1, 3)]) == "ancilla row 3 depends on logical qubits"

    def test_leak_messages_name_physical_qubits(self):
        # Logical 0 sits on qubit 2 and logical 1 on qubit 0; qubit 1 is spare.
        g, mapping, m = builtin("quito"), Mapping((2, 0)), ParityMatrix.identity(2)
        assert verification_failure(m, g, mapping, [CNOT(2, 1)]) == "ancilla row 1 depends on logical qubits"
        assert verification_failure(m, g, mapping, [CNOT(1, 0)]) == "row 0 depends on ancilla qubits"
        # CNOT(0, 2) routed through the spare qubit 1, which ends clean.
        bridged = [CNOT(1, 2), CNOT(0, 1), CNOT(1, 2), CNOT(0, 1)]
        assert verification_failure(m, g, mapping, bridged) == "row 2 differs from the expected row"

    def test_narrow_output_register_is_a_failure(self):
        original = Circuit(5, (CNOT(0, 1),))
        output = Circuit(3, (CNOT(0, 1),))
        failure = circuit_failure(original, output, builtin("quito"), Mapping((0, 1, 2, 3, 4)))
        assert failure == "logical qubit 3 sits on physical qubit 3, past the output's 3 qubits"


    def test_unfinished_elimination_raises(self, monkeypatch):
        # A row pass that leaves ancilla row 1 depending on logical qubit 0.
        import cnotsynth.synth

        real = cnotsynth.synth.eliminate_row

        def leaky(rows, *args):
            ops = real(rows, *args)
            rows[1] ^= rows[0]
            return ops

        monkeypatch.setattr(cnotsynth.synth, "eliminate_row", leaky)
        with pytest.raises(RuntimeError, match="^elimination finished without reaching the identity: ancilla row 1 "):
            synthesize(ParityMatrix.identity(1), builtin("linear(2)"), mapping=Mapping((0,)))
