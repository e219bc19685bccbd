import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    exact_all_zeros_fidelity,
    extended_assign,
    matrix_bits,
    random_connected_graph,
    reference_parse_qasm,
)
from cnotsynth.arch import CouplingGraph, builtin
from cnotsynth.circuit import (
    CNOT,
    Circuit,
    Measure,
    OneQubit,
    QasmError,
    depth,
    esp,
    monte_carlo_fidelity,
    parse_qasm,
    random_cnot_circuit,
    segment_and_synthesize,
    segment_runs,
    write_qasm,
)
from cnotsynth.gf2 import ParityMatrix
from cnotsynth.mapping import Mapping, TabuConfig, optimize_mapping
from cnotsynth.synth import circuit_failure

SMALL_CONFIG = TabuConfig(tabu_len=4, iterations=2, seed=0)


@st.composite
def circuits(draw, n=None):
    n = draw(st.integers(2, 6)) if n is None else n
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["cx", "h", "x", "z", "measure"]))
        q = draw(st.integers(0, n - 1))
        if kind == "cx":
            t = draw(st.integers(0, n - 2))
            gates.append(CNOT(q, t + 1 if t >= q else t))
        elif kind == "measure":
            gates.append(Measure(q))
        else:
            gates.append(OneQubit(kind, q))
    return Circuit(n, tuple(gates))


#: Separators between the tokens of a statement: none, the whitespace kinds
#: the reader must treat alike (NBSP included), the line breaks that move the
#: reported line (CRLF, CR, VT and U+2028 among them), and a comment hiding a ';'.
_GAPS = st.sampled_from(["", " ", "\t", "\xa0", "\n", "\r\n", "\r", "\x0b", "\u2028", " // c; x\n"])


@st.composite
def _statement_tokens(draw, clean):
    """One statement's text; a ``clean`` one is a gate on declared registers."""
    def ref(reg="q"):
        if clean:
            return [reg, "[", draw(st.sampled_from(["0", "1", "2", "02", "007"])), "]"]
        return [draw(st.sampled_from([reg, reg, reg, "r"])), "[",
                draw(st.sampled_from(["0", "1", "2", "3", "4", "01", "007", "9", "\u0663"])), "]"]

    forms = ["cx", "h", "x", "z", "measure"] if clean else [
        "OPENQASM", "include", "qreg", "creg", "cx", "cx", "cx", "h", "x", "z", "measure", "measure", "unknown", "junk"]
    form = draw(st.sampled_from(forms))
    if form == "OPENQASM":
        tokens = ["OPENQASM", draw(st.sampled_from(["2.0", "2.0", "3.0", "2"]))]
    elif form == "include":
        tokens = ["include", draw(st.sampled_from(['"qelib1.inc"', "qelib1.inc", '""']))]
    elif form in ("qreg", "creg"):
        tokens = [form, *ref(form[0])]
        tokens[3] = draw(st.sampled_from(["5", "5", "3", "0", "05"]))
    elif form == "cx":
        tokens = ["cx", *ref(), ",", *ref()]
    elif form == "measure":
        tokens = ["measure", *ref(), "->", *ref("c")]
    elif form == "unknown":
        tokens = [draw(st.sampled_from(["t", "rz(0.5)", "barrier", "CX", "hx", "measure2", "OPENQASMx"])), *ref()]
    elif form == "junk":
        tokens = [draw(st.sampled_from(["1cx", "[", "->", "qreg", "include", "OPENQASM", "é", "cx[0]"]))]
    else:
        tokens = [form, *ref()]
    if not clean and draw(st.integers(0, 7)) == 0:  # a malformed variant: one token dropped
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    # The keyword's gap is a space unless drawn otherwise, so that most
    # statements reach the register checks rather than gluing into a new word.
    gaps = [draw(st.sampled_from([" ", " ", " ", "\n"]) | _GAPS) for _ in tokens]
    return "".join(tok + gap for tok, gap in zip(tokens, gaps))


@st.composite
def qasm_soups(draw):
    """Statement soups: every statement form, malformed variants of each,
    unknown gates, empty statements, comments, assorted line breaks and
    whitespace, and sometimes no final ';'."""
    clean = draw(st.booleans())
    headers = ["qreg q[5]; creg c[5];\n", "OPENQASM 2.0;\nqreg q[5];\r\ncreg c[3];"]
    parts = [draw(st.sampled_from(headers if clean else ["", "qreg q[5];", *headers]))]
    for _ in range(draw(st.integers(0, 8))):
        parts.append(draw(_GAPS) + draw(_statement_tokens(clean)) + draw(st.sampled_from([";", ";", ";", ";;", "; ;"])))
    text = "".join(parts)
    if draw(st.booleans()):
        text = text.rstrip().removesuffix(";")
    return text


def _parse_outcome(parse, text):
    """The circuit's qubit count and gates, or the error's message and position."""
    try:
        c = parse(text)
    except QasmError as err:
        return str(err), err.line, err.col
    return c.n, c.gates


class TestQasm:
    def test_minimal(self):
        c = parse_qasm("qreg q[2]; cx q[0],q[1];")
        assert c == Circuit(2, (CNOT(0, 1),))

    def test_full_header(self):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[2];\nmeasure q[2] -> c[2];\n'
        c = parse_qasm(text)
        assert c.gates == (OneQubit("h", 0), CNOT(0, 2), Measure(2))

    def test_measure_keeps_classical_bit(self):
        text = "qreg q[3]; creg c[5]; measure q[0] -> c[4]; measure q[1] -> c[1]; measure q[2] -> c[0];"
        c = parse_qasm(text)
        assert c.gates == (Measure(0, 4), Measure(1), Measure(2, 0))
        assert [m.clbit for m in c.gates] == [4, 1, 0]
        out = write_qasm(c)
        assert "creg c[5];" in out
        assert "measure q[0] -> c[4];\nmeasure q[1] -> c[1];\nmeasure q[2] -> c[0];" in out
        assert parse_qasm(out) == c

    def test_measure_has_one_form(self):
        m = Measure(3)
        assert m == Measure(3, 3) and m.clbit == 3
        assert m._replace(qubit=1) == Measure(1, 3)
        assert pickle.loads(pickle.dumps(Measure(2, 5))) == Measure(2, 5)
        assert pickle.loads(pickle.dumps(m)).clbit == 3
        # An output written with the bit spelled out checks against the short form.
        original, output = Circuit(2, (Measure(0),)), Circuit(5, (Measure(0, 0),))
        assert circuit_failure(original, output, builtin("quito"), Mapping((0, 1))) is None

    def test_negative_classical_bit_rejected(self):
        with pytest.raises(ValueError, match="classical bit"):
            Circuit(2, (Measure(0, -1),))

    def test_comments_ignored(self):
        c = parse_qasm("// top\nqreg q[2]; // registers\ncx q[0],q[1]; // gate\n")
        assert len(c.gates) == 1

    def test_cx_same_qubit(self):
        with pytest.raises(QasmError, match="coincide"):
            parse_qasm("qreg q[2]; cx q[0],q[0];")

    def test_unsupported_gate_has_position(self):
        with pytest.raises(QasmError, match="line 2") as err:
            parse_qasm("qreg q[2];\nt q[0];")
        assert "unsupported" in str(err.value)

    def test_register_size_mismatch(self):
        with pytest.raises(QasmError, match="size mismatch"):
            parse_qasm("qreg q[2]; cx q[0],q[5];")

    def test_measure_needs_creg(self):
        with pytest.raises(QasmError, match="classical register"):
            parse_qasm("qreg q[2]; measure q[0] -> c[0];")

    def test_unknown_register_name(self):
        with pytest.raises(QasmError, match="unknown quantum register"):
            parse_qasm("qreg q[2]; cx r[0],q[1];")

    def test_missing_semicolon(self):
        with pytest.raises(QasmError, match="';'"):
            parse_qasm("qreg q[2]; cx q[0],q[1]")

    def test_wrong_version(self):
        with pytest.raises(QasmError, match="version"):
            parse_qasm("OPENQASM 3.0; qreg q[2];")

    @given(circuits())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, circ):
        assert parse_qasm(write_qasm(circ)) == circ

    @given(qasm_soups())
    @settings(max_examples=300, deadline=None)
    def test_reader_matches_reference(self, text):
        assert _parse_outcome(parse_qasm, text) == _parse_outcome(reference_parse_qasm, text)


class TestRandomCircuit:
    def test_empty(self):
        assert random_cnot_circuit(4, 0, 1).gates == ()

    def test_deterministic(self):
        assert random_cnot_circuit(5, 50, 9) == random_cnot_circuit(5, 50, 9)

    def test_large_circuit_has_full_rank(self):
        c = random_cnot_circuit(5, 1000, seed=17)
        assert ParityMatrix.from_circuit(c.cnot_pairs(), 5).rank() == 5

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            random_cnot_circuit(1, 3, 0)

    def test_rejects_negative_gate_count(self):
        with pytest.raises(ValueError):
            random_cnot_circuit(3, -1, 0)


class TestCircuitValidation:
    def test_rejects_out_of_range_qubit(self):
        with pytest.raises(ValueError, match="outside"):
            Circuit(2, (CNOT(0, 2),))

    def test_rejects_self_cnot(self):
        with pytest.raises(ValueError, match="coincide"):
            Circuit(2, (CNOT(1, 1),))

    def test_rejects_unknown_one_qubit_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Circuit(2, (OneQubit("t", 0),))

    def test_classical_register_width(self):
        assert Circuit(3).clbits == 3
        assert Circuit(3, (Measure(0, 4),)).clbits == 5
        assert Circuit(3, (Measure(0, 1),), clbits=2).clbits == 2
        assert parse_qasm("qreg q[5]; creg c[2]; measure q[4] -> c[1];").clbits == 2
        with pytest.raises(ValueError, match="needs at least 5 bits, got 3"):
            Circuit(3, (Measure(0, 4),), clbits=3)
        with pytest.raises(ValueError, match="needs at least 1 bits, got 0"):
            Circuit(3, clbits=0)

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            Circuit(0)


class TestDepth:
    def test_empty(self):
        assert depth(Circuit(3)) == 0

    def test_disjoint_gates_share_layer(self):
        assert depth(Circuit(4, (CNOT(0, 1), CNOT(2, 3)))) == 1

    def test_chained(self):
        assert depth(Circuit(5, (CNOT(0, 1), CNOT(1, 2), CNOT(3, 4)))) == 2

    def test_depth_at_most_gate_count(self):
        c = random_cnot_circuit(4, 30, seed=2)
        assert depth(c) <= len(c.gates)

    def test_permuting_within_layer_invariant(self):
        a = Circuit(4, (CNOT(0, 1), CNOT(2, 3), CNOT(0, 2)))
        b = Circuit(4, (CNOT(2, 3), CNOT(0, 1), CNOT(0, 2)))
        assert depth(a) == depth(b)


class TestEsp:
    def test_empty_circuit(self):
        assert esp(Circuit(5), builtin("quito")) == 1.0

    def test_single_quito_gate(self):
        got = esp(Circuit(5, (CNOT(0, 1),)), builtin("quito"))
        assert got == pytest.approx(0.98369, abs=1e-6)

    def test_quito_one_qubit_default(self):
        got = esp(Circuit(5, (OneQubit("h", 0),)), builtin("quito"))
        assert got == pytest.approx(1 - 0.0017)

    def test_measure_is_free(self):
        assert esp(Circuit(5, (Measure(0),)), builtin("quito")) == 1.0

    def test_non_nn_gate_rejected(self):
        with pytest.raises(ValueError, match="not a coupling edge"):
            esp(Circuit(5, (CNOT(0, 4),)), builtin("quito"))

    @pytest.mark.parametrize("gate", [OneQubit("h", 7), OneQubit("x", 5), OneQubit("z", 8), Measure(6, 0)],
                             ids=["h", "x", "z", "measure"])
    def test_gate_off_device_rejected(self, gate):
        with pytest.raises(ValueError, match=f"gate 1: qubit {gate.qubit} is not on the device"):
            esp(Circuit(9, (CNOT(0, 1), gate)), builtin("quito"))

    @pytest.mark.parametrize("one_q_error", [-0.5, 1.5, -1e-9, float("nan")])
    def test_explicit_one_q_error_outside_unit_interval_rejected(self, one_q_error):
        with pytest.raises(ValueError, match=f"got {one_q_error}"):
            esp(Circuit(5, (OneQubit("h", 0),)), builtin("quito"), one_q_error)

    def test_noisy_gate_strictly_decreases(self):
        g = builtin("quito")
        base = Circuit(5, (CNOT(0, 1),))
        more = Circuit(5, (CNOT(0, 1), CNOT(1, 2)))
        assert esp(more, g) < esp(base, g) <= 1.0


class TestMonteCarlo:
    def test_zero_noise_is_exactly_one(self):
        g = builtin("linear(4)")
        zero = CouplingGraph(range(4), [(u, v, 0.0) for u, v, _ in g.edges()])
        c = random_cnot_circuit(4, 40, seed=3)
        nn = Circuit(4, tuple(g for g in c.gates if abs(g.control - g.target) == 1))
        assert monte_carlo_fidelity(nn, zero, shots=500, seed=1) == 1.0

    def test_empty_circuit(self):
        assert monte_carlo_fidelity(Circuit(3), builtin("linear(3)"), shots=10, seed=0) == 1.0

    def test_reproducible(self):
        g = builtin("quito")
        c = Circuit(5, (CNOT(0, 1), CNOT(1, 2)))
        a = monte_carlo_fidelity(c, g, shots=2000, seed=5)
        b = monte_carlo_fidelity(c, g, shots=2000, seed=5)
        assert a == b

    def test_single_gate_binomial(self):
        # One faulty gate always breaks the all-zero state, so the estimate
        # concentrates on 1 - e.
        e = 0.05
        g = CouplingGraph(range(2), [(0, 1, e)])
        c = Circuit(2, (CNOT(0, 1),))
        shots = 20000
        got = monte_carlo_fidelity(c, g, shots=shots, seed=11)
        assert abs(got - (1 - e)) <= 4 * math.sqrt(e * (1 - e) / shots)

    def test_across_seeds_binomial_bounds(self):
        e = 0.05
        g = CouplingGraph(range(2), [(0, 1, e)])
        c = Circuit(2, (CNOT(0, 1),))
        shots = 4000
        bound = 4 * math.sqrt(e * (1 - e) / shots)
        hits = sum(
            1
            for s in range(50)
            if abs(monte_carlo_fidelity(c, g, shots=shots, seed=s) - (1 - e)) <= bound
        )
        assert hits >= 49

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fault_modes_split_uniformly(self, seed):
        # Over CNOT(0,1), CNOT(1,0) only a second fault that undoes the first
        # restores all zeros, one mode for each mode of the first fault, so
        # the fidelity is (1 - e)^2 + e^2 / 3 and a non-uniform split lowers it.
        e, shots = 0.3, 50_000
        g = CouplingGraph(range(2), [(0, 1, e)])
        c = Circuit(2, (CNOT(0, 1), CNOT(1, 0)))
        exact = exact_all_zeros_fidelity(c, g)
        assert exact == pytest.approx((1 - e) ** 2 + e**2 / 3) and exact == pytest.approx(0.52)
        got = monte_carlo_fidelity(c, g, shots=shots, seed=seed)
        assert abs(got - exact) <= 4 * math.sqrt(exact * (1 - exact) / shots)

    def test_state_sized_by_device_not_register(self):
        # A register of 10^6 qubits on quito: the state must span the
        # device's 5 ids, not 10 shots x 10^6 bytes, with the same estimate.
        import tracemalloc

        g = builtin("quito")
        gates = (CNOT(0, 1), CNOT(1, 3), CNOT(3, 4))
        tracemalloc.start()
        try:
            wide = monte_carlo_fidelity(Circuit(10**6, gates), g, shots=10, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert wide == monte_carlo_fidelity(Circuit(5, gates), g, shots=10, seed=4)

    def test_rejects_mixed_circuit(self):
        with pytest.raises(ValueError, match="CNOT-only"):
            monte_carlo_fidelity(Circuit(2, (OneQubit("h", 0),)), builtin("linear(2)"), 10, 0)

    def test_rejects_non_nn(self):
        with pytest.raises(ValueError, match="coupling edge"):
            monte_carlo_fidelity(Circuit(5, (CNOT(0, 4),)), builtin("quito"), 10, 0)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError, match="shots"):
            monte_carlo_fidelity(Circuit(2, (CNOT(0, 1),)), builtin("linear(2)"), 0, 0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            monte_carlo_fidelity(Circuit(2, (CNOT(0, 1),)), builtin("linear(2)"), 10, -1)


def bernstein_vazirani(n, secret):
    gates = [OneQubit("h", q) for q in range(n)]
    gates.append(OneQubit("z", n - 1))
    gates.extend(CNOT(q, n - 1) for q in range(n - 1) if (secret >> q) & 1)
    gates.extend(OneQubit("h", q) for q in range(n - 1))
    gates.extend(Measure(q) for q in range(n - 1))
    return Circuit(n, tuple(gates))


class TestSegmentation:
    def test_run_splitting(self):
        c = bernstein_vazirani(5, 0b1011)
        kinds = [k for k, _ in segment_runs(c.gates)]
        assert kinds == ["other", "cnot", "other"]

    def test_bv_on_quito_is_nn(self):
        circ = bernstein_vazirani(5, 0b1011)
        out, mapping = segment_and_synthesize(circ, builtin("quito"), SMALL_CONFIG)
        g = builtin("quito")
        for gate in out.gates:
            if isinstance(gate, CNOT):
                assert g.has_edge(gate.control, gate.target)
        assert mapping == optimize_mapping(g, 5, SMALL_CONFIG)

    def test_no_cnot_circuit_is_pure_relocation(self):
        circ = Circuit(3, (OneQubit("h", 0), Measure(2)))
        out, mapping = segment_and_synthesize(circ, builtin("quito"), SMALL_CONFIG)
        assert out.gates == (OneQubit("h", mapping.physical(0)), Measure(mapping.physical(2), 2))

    def test_single_cnot_run_matches_plain_synthesis(self):
        from cnotsynth.synth import synthesize

        circ = random_cnot_circuit(5, 25, seed=8)
        out, mapping = segment_and_synthesize(circ, builtin("quito"), SMALL_CONFIG)
        m = ParityMatrix.from_circuit(circ.cnot_pairs(), 5)
        direct = synthesize(m, builtin("quito"), SMALL_CONFIG)
        assert [g for g in out.gates] == list(direct.gates)
        assert mapping == direct.mapping

    def test_segment_parity_pullback(self):
        g = builtin("quito")
        circ = bernstein_vazirani(5, 0b0110)
        out, mapping = segment_and_synthesize(circ, g, SMALL_CONFIG)
        p2r = {p: r for r, p in enumerate(extended_assign(g, mapping))}
        k = 0
        for kind, run in segment_runs(circ.gates):
            if kind == "other":
                k += len(run)
                continue
            start = k
            while k < len(out.gates) and isinstance(out.gates[k], CNOT):
                k += 1
            original = ParityMatrix.from_circuit([(x.control, x.target) for x in run], circ.n)
            rebuilt = ParityMatrix.identity(g.num_vertices)
            for gate in out.gates[start:k]:
                rebuilt.row_xor(p2r[gate.control], p2r[gate.target])
            assert (matrix_bits(rebuilt)[: circ.n, : circ.n] == matrix_bits(original)).all()
        assert k == len(out.gates)

    def test_measurements_keep_their_classical_bits(self):
        g = builtin("quito")
        mapping = Mapping((4, 3, 1))
        circ = Circuit(3, (Measure(0, 2), Measure(1), Measure(2, 0), Measure(1, 4)))
        out, _ = segment_and_synthesize(circ, g, SMALL_CONFIG, mapping=mapping)
        assert [(m.qubit, m.clbit) for m in out.gates] == [(4, 2), (3, 1), (1, 0), (3, 4)]
        assert out.gates[3] == Measure(3, 4) and out.gates[1] == Measure(3, 1)

    def test_one_qubit_gates_relocated_through_mapping(self):
        circ = Circuit(3, (OneQubit("x", 1),))
        out, _ = segment_and_synthesize(circ, builtin("quito"), SMALL_CONFIG)
        gate = out.gates[0]
        assert isinstance(gate, OneQubit) and gate.kind == "x"

    @pytest.mark.parametrize("circ,mapping,reason", [
        (Circuit(3, (OneQubit("h", 2),)), Mapping((0, 1)), "mapping covers 2 qubits"),
        (Circuit(5, (OneQubit("h", 0),)), Mapping((1, 0, 2, 3, 4)), "removal-replay"),
    ])
    def test_caller_mapping_is_checked_without_a_cnot_run(self, circ, mapping, reason):
        with pytest.raises(ValueError, match=reason):
            segment_and_synthesize(circ, builtin("quito"), mapping=mapping)

    @pytest.mark.parametrize("assign", [(0,), (0, 1)])
    def test_caller_mapping_on_disconnected_device_is_refused(self, assign):
        g = CouplingGraph(range(4), [(0, 1, 0.01), (2, 3, 0.01)])
        circ = Circuit(len(assign), (OneQubit("h", 0),))
        with pytest.raises(ValueError, match="removal-replay"):
            segment_and_synthesize(circ, g, mapping=Mapping(assign))

    def test_caller_mapping_is_replay_checked_once_per_circuit(self, monkeypatch):
        import cnotsynth.synth

        g = builtin("quito")
        mapping = optimize_mapping(g, 5, SMALL_CONFIG)
        real, calls = cnotsynth.synth.replay_is_valid, []
        monkeypatch.setattr(cnotsynth.synth, "replay_is_valid", lambda *args: calls.append(args) or real(*args))
        gates = []
        for k in range(12):
            gates += [OneQubit("h", k % 5), CNOT(k % 5, (k + 2) % 5), CNOT((k + 1) % 5, (k + 3) % 5)]
        circ = Circuit(5, tuple(gates))
        out, returned = segment_and_synthesize(circ, g, mapping=mapping)
        assert [kind for kind, _ in segment_runs(circ.gates)].count("cnot") == 12
        assert returned == mapping and len(calls) == 1
        assert circuit_failure(circ, out, g, returned) is None

    @given(st.integers(2, 7), st.integers(0, 2**16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mixed_synthesis_passes_the_checker_in_place(self, size, seed, data):
        # Circuits narrower than the device leave spare qubits as ancillas.
        g = random_connected_graph(size, seed)
        circ = data.draw(circuits(n=data.draw(st.integers(2, size))))
        mapping = optimize_mapping(g, circ.n, TabuConfig(tabu_len=2, iterations=1, seed=seed))
        out, _ = segment_and_synthesize(circ, g, mapping=mapping)
        assert circuit_failure(circ, out, g, mapping) is None
        assert all(g.has_edge(*gate) for gate in out.gates if isinstance(gate, CNOT))

    def test_checker_tells_a_cnot_from_an_equal_tuple_measurement(self):
        # CNOT(0, 1) and Measure(0, 1) are equal as plain tuples.
        circ = Circuit(2, (Measure(0, 1),))
        assert circuit_failure(circ, Circuit(2, (CNOT(0, 1),)), builtin("quito"), Mapping((0, 1))) is not None
