import json

import pytest

from cnotsynth.circuit import random_cnot_circuit, write_qasm
from cnotsynth.cli import main

FAST = ["--tabu-len", "4", "--iterations", "2"]


def write_random_qasm(path, n=5, m=40, seed=3):
    path.write_text(write_qasm(random_cnot_circuit(n, m, seed)), encoding="utf-8")
    return str(path)


class TestArchCommand:
    def test_quito_report(self, capsys):
        assert main(["arch", "quito"]) == 0
        out = capsys.readouterr().out
        assert "key qubits: 0 2 4" in out
        assert "articulation points: 1 3" in out
        assert "hamiltonian path: none" in out

    def test_linear5_has_path(self, capsys):
        assert main(["arch", "linear(5)"]) == 0
        assert "hamiltonian path: 0 1 2 3 4" in capsys.readouterr().out

    def test_missing_file_exits_2(self, capsys):
        assert main(["arch", "missing.txt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_json_format(self, capsys):
        assert main(["arch", "quito", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["key_qubits"] == [0, 2, 4]
        assert payload["hamiltonian_path"] is None

    def test_arch_file(self, tmp_path, capsys):
        p = tmp_path / "dev.arch"
        p.write_text("qubits 2\nedge 0 1 0.01\n", encoding="utf-8")
        assert main(["arch", str(p)]) == 0
        assert "qubits: 2" in capsys.readouterr().out


class TestSynthCommand:
    def test_synthesizes_and_verifies(self, tmp_path, capsys):
        inp = write_random_qasm(tmp_path / "in.qasm")
        out = tmp_path / "out.qasm"
        mapping = tmp_path / "map.json"
        code = main(["synth", inp, "--arch", "quito", "--seed", "7", *FAST,
                     "--out", str(out), "--map-out", str(mapping)])
        assert code == 0
        metrics = capsys.readouterr().out
        assert "cnot=" in metrics and "esp=" in metrics
        assert out.exists() and mapping.exists()
        payload = json.loads(mapping.read_text())
        assert sorted(payload["assign"]) == [0, 1, 2, 3, 4]

    def test_gate_bound_on_quito(self, tmp_path, capsys):
        inp = write_random_qasm(tmp_path / "in.qasm", n=5, m=100, seed=1)
        assert main(["synth", inp, "--arch", "quito", *FAST, "--out", str(tmp_path / "o.qasm")]) == 0
        cnot = int(capsys.readouterr().out.split("cnot=")[1].split()[0])
        assert cnot <= 50

    def test_empty_circuit(self, tmp_path, capsys):
        p = tmp_path / "empty.qasm"
        p.write_text("qreg q[3];\n", encoding="utf-8")
        assert main(["synth", str(p), "--arch", "quito", *FAST, "--out", str(tmp_path / "o.qasm")]) == 0
        assert "cnot=0" in capsys.readouterr().out

    def test_byte_identical_outputs(self, tmp_path, capsys):
        inp = write_random_qasm(tmp_path / "in.qasm", seed=12)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.qasm"
            mp = tmp_path / f"{tag}.json"
            assert main(["synth", inp, "--arch", "quito", "--seed", "5", *FAST,
                         "--out", str(out), "--map-out", str(mp)]) == 0
            outs.append((out.read_bytes(), mp.read_bytes(), capsys.readouterr().out))
        assert outs[0] == outs[1]

    def test_cnot_free_circuit_searches_once(self, tmp_path, monkeypatch, capsys):
        import cnotsynth.cli
        import cnotsynth.mapping
        import cnotsynth.synth

        calls = []
        real = cnotsynth.mapping.optimize_mapping

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (cnotsynth.cli, cnotsynth.mapping, cnotsynth.synth):
            monkeypatch.setattr(module, "optimize_mapping", counting)
        p = tmp_path / "hx.qasm"
        p.write_text("qreg q[3]; creg c[3];\nh q[0];\nx q[1];\nh q[2];\n", encoding="utf-8")
        mapping = tmp_path / "map.json"
        assert main(["synth", str(p), "--arch", "quito", *FAST,
                     "--out", str(tmp_path / "o.qasm"), "--map-out", str(mapping)]) == 0
        assert len(calls) == 1
        assert json.loads(mapping.read_text())["assign"] == list(real(*calls[0]).assign)

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.qasm"
        p.write_text("qreg q[2]; bogus q[0];", encoding="utf-8")
        assert main(["synth", str(p), "--arch", "quito", *FAST]) == 2

    def test_mixed_circuit(self, tmp_path, capsys):
        p = tmp_path / "mixed.qasm"
        p.write_text(
            "qreg q[3]; creg c[3];\nh q[0];\ncx q[0],q[2]; cx q[1],q[2];\nh q[1];\nmeasure q[2] -> c[2];\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.qasm"
        assert main(["synth", str(p), "--arch", "quito", *FAST, "--out", str(out)]) == 0
        text = out.read_text()
        assert "h q[" in text and "measure q[" in text

    def test_stdout_carries_only_qasm_without_out_flag(self, tmp_path, capsys):
        inp = write_random_qasm(tmp_path / "in.qasm", m=10, seed=6)
        assert main(["synth", inp, "--arch", "quito", *FAST]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("OPENQASM 2.0;")
        assert "cnot=" not in captured.out
        assert "cnot=" in captured.err

    def test_verify_with_ancilla_qubits(self, tmp_path, capsys):
        # 3 logical qubits on a 5-qubit device: spare qubits may carry gates.
        inp = write_random_qasm(tmp_path / "in.qasm", n=3, m=25, seed=4)
        out = tmp_path / "out.qasm"
        mapping = tmp_path / "map.json"
        assert main(["synth", inp, "--arch", "quito", *FAST,
                     "--out", str(out), "--map-out", str(mapping)]) == 0
        assert main(["verify", inp, str(out), str(mapping)]) == 0


class TestVerifyCommand:
    def synth_pair(self, tmp_path):
        inp = write_random_qasm(tmp_path / "in.qasm", seed=23)
        out = tmp_path / "out.qasm"
        mapping = tmp_path / "map.json"
        assert main(["synth", inp, "--arch", "quito", *FAST, "--out", str(out), "--map-out", str(mapping)]) == 0
        return inp, out, mapping

    def test_pipeline_verifies(self, tmp_path, capsys):
        inp, out, mapping = self.synth_pair(tmp_path)
        assert main(["verify", inp, str(out), str(mapping)]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_tampered_pair_exits_1(self, tmp_path, capsys):
        inp, out, mapping = self.synth_pair(tmp_path)
        lines = out.read_text().splitlines()
        cut = next(i for i, l in enumerate(lines) if l.startswith("cx"))
        out.write_text("\n".join(lines[:cut] + lines[cut + 1:]) + "\n", encoding="utf-8")
        assert main(["verify", inp, str(out), str(mapping)]) == 1
        assert "mismatch" in capsys.readouterr().out

    def test_off_edge_gate_exits_1(self, tmp_path, capsys):
        # (0,4) is not a quito coupling edge, although the parity matches.
        p = tmp_path / "c.qasm"
        p.write_text("qreg q[5]; cx q[0],q[4];\n", encoding="utf-8")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"arch": "quito", "n": 5, "assign": [0, 1, 2, 3, 4]}), encoding="utf-8")
        assert main(["verify", str(p), str(p), str(mapping)]) == 1
        out = capsys.readouterr().out
        assert "not a coupling edge" in out and "equivalent" not in out

    def test_qubit_outside_device_exits_2(self, tmp_path, capsys):
        original = tmp_path / "o.qasm"
        original.write_text("qreg q[2];\n", encoding="utf-8")
        synthesized = tmp_path / "s.qasm"
        synthesized.write_text("qreg q[9]; cx q[0],q[8]; cx q[0],q[8];\n", encoding="utf-8")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"arch": "quito", "n": 2, "assign": [0, 1]}), encoding="utf-8")
        assert main(["verify", str(original), str(synthesized), str(mapping)]) == 2
        assert "outside the device" in capsys.readouterr().err

    def test_identity_pair(self, tmp_path, capsys):
        p = tmp_path / "id.qasm"
        p.write_text("qreg q[2];\n", encoding="utf-8")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"arch": "linear(2)", "n": 2, "assign": [0, 1]}), encoding="utf-8")
        assert main(["verify", str(p), str(p), str(mapping)]) == 0


class TestBenchCommand:
    def test_single_row(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--arch", "quito", "--sizes", "10", "--instances", "1",
                     *FAST, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "arch,n,input_gates,cnot,depth,esp,mc_fidelity,ms"
        assert len(lines) == 3  # header + instance + aggregate
        assert lines[2].startswith("quito:mean,5,10,")

    def test_deterministic_modulo_timing(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            assert main(["bench", "--arch", "quito,linear(5)", "--sizes", "10,20",
                         "--instances", "2", "--seed", "3", *FAST, "--out", str(out)]) == 0
            rows = [line.rsplit(",", 1)[0] for line in out.read_text().splitlines()]
            outs.append(rows)
        assert outs[0] == outs[1]

    def test_bad_size_exits_2(self, capsys):
        assert main(["bench", "--arch", "quito", "--sizes", "ten", "--instances", "1"]) == 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--arch", "quito", "--sizes", "10", "--instances", "1",
                     *FAST, "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload[0]["arch"] == "quito" and payload[-1]["aggregate"] is True

    def test_quito_sweep_up_to_10000_gates_stays_bounded(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["bench", "--arch", "quito", "--sizes", "10,100,1000,10000",
                     "--instances", "2", *FAST, "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            if ":mean" in line:
                continue
            cnot = int(line.split(",")[3])
            assert cnot <= 50  # 2 * 5^2


class TestFidelityCommand:
    def test_esp_only(self, tmp_path, capsys):
        p = tmp_path / "c.qasm"
        p.write_text("qreg q[5]; cx q[0],q[1];\n", encoding="utf-8")
        assert main(["fidelity", str(p), "--arch", "quito"]) == 0
        out = capsys.readouterr().out
        assert "esp=0.983690" in out and "mc_fidelity=-" in out

    def test_with_shots(self, tmp_path, capsys):
        p = tmp_path / "c.qasm"
        p.write_text("qreg q[5]; cx q[0],q[1];\n", encoding="utf-8")
        assert main(["fidelity", str(p), "--arch", "quito", "--shots", "2000", "--seed", "4"]) == 0
        assert "mc_fidelity=0." in capsys.readouterr().out

    def test_non_nn_circuit_exits_2(self, tmp_path, capsys):
        p = tmp_path / "c.qasm"
        p.write_text("qreg q[5]; cx q[0],q[4];\n", encoding="utf-8")
        assert main(["fidelity", str(p), "--arch", "quito"]) == 2
