import csv
import json
import re
import time
import warnings
from pathlib import Path

import pytest

from conftest import MIXED_QASM, cnot_ring_qasm
from cnotsynth.arch import builtin
from cnotsynth.circuit import Measure, parse_qasm, random_cnot_circuit, write_qasm
from cnotsynth.cli import main
from cnotsynth.mapping import MappingSearch

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

    @pytest.mark.parametrize("spec,reason", [
        ("grid(0,5)", "grid dimensions must be >= 1"),
        ("linear(0)", "linear chain needs at least 1 qubit"),
    ])
    def test_bad_builtin_parameter_names_its_reason(self, spec, reason, capsys):
        assert main(["arch", spec]) == 2
        err = capsys.readouterr().err
        assert reason in err and "no such file" in err

    def test_json_format(self, capsys):
        assert main(["arch", "quito", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["key_qubits"] == [0, 2, 4]
        assert payload["hamiltonian_path"] is None

    def test_json_path_not_computed_past_the_limit(self, capsys):
        # A 40-qubit chain has a path, but no search runs above 32 qubits;
        # null would claim that one ran and found none.
        assert main(["arch", "linear(40)", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["hamiltonian_path"] == "not computed"
        assert main(["arch", "linear(40)"]) == 0
        assert "hamiltonian path: not computed (graph exceeds 32 qubits)" in capsys.readouterr().out

    @pytest.mark.parametrize("name", [
        "quito", "guadalupe", "manila", "wuyuan2", "scq10", "tokyo", "linear(7)", "grid(3,4)",
    ])
    def test_json_key_qubits_and_cut_points_partition_the_vertices(self, name, capsys):
        assert main(["arch", name, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        graph = builtin(name)
        keys, cuts = payload["key_qubits"], payload["articulation_points"]
        assert sorted(keys + cuts) == sorted(graph.vertices)
        assert keys == sorted(MappingSearch(graph, 1).keys)

    def test_arch_file(self, tmp_path, capsys):
        p = tmp_path / "dev.arch"
        p.write_text("qubits 2\nedge 0 1 0.01\n", encoding="utf-8")
        assert main(["arch", str(p)]) == 0
        assert "qubits: 2" in capsys.readouterr().out

    def test_malformed_arch_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "dup.arch"
        p.write_text("qubits 2\nedge 0 1 0.01\nedge 1 0 0.02\n", encoding="utf-8")
        assert main(["arch", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {p}: line 3: duplicate edge (0,1)\n" and captured.out == ""


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
        # The file holds exactly what verify reads.
        assert sorted(payload) == ["arch", "assign"] and payload["arch"] == "quito"
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
        # The searched mapping is trusted, so the replay check never runs.
        replays = []
        monkeypatch.setattr(cnotsynth.synth, "replay_is_valid", lambda *args: replays.append(args))
        p = tmp_path / "hx.qasm"
        p.write_text("qreg q[3]; creg c[3];\nh q[0];\nx q[1];\nh q[2];\n", encoding="utf-8")
        mapping = tmp_path / "map.json"
        assert main(["synth", str(p), "--arch", "quito", *FAST,
                     "--out", str(tmp_path / "o.qasm"), "--map-out", str(mapping)]) == 0
        assert len(calls) == 1 and replays == []
        assert json.loads(mapping.read_text())["assign"] == list(real(*calls[0]).assign)

    @pytest.mark.parametrize("argv,reason", [
        (["synth", "{qasm}", "--arch", "{split}"], "connected coupling graph"),
        (["synth", "{qasm}", "--arch", "linear(3)"], "device has 3 qubits"),
        (["bench", "--arch", "quito,{split}", "--sizes", "5", "--instances", "1"], "connected coupling graph"),
    ])
    def test_library_input_errors_exit_2(self, argv, reason, tmp_path, capsys):
        split = tmp_path / "split.arch"
        split.write_text("qubits 5\nedge 0 1 0.01\nedge 2 3 0.01\nedge 3 4 0.01\n", encoding="utf-8")
        paths = {"qasm": write_random_qasm(tmp_path / "in.qasm"), "split": str(split)}
        assert main([arg.format(**paths) for arg in argv] + FAST) == 2
        err = capsys.readouterr().err
        assert reason in err
        # The message names the disconnected device, also among several.
        assert ("split.arch" in err) == any("{split}" in arg for arg in argv)

    def test_synth_and_bench_word_a_disconnected_device_alike(self, tmp_path, capsys):
        split = tmp_path / "split.arch"
        split.write_text("qubits 5\nedge 0 1 0.01\nedge 2 3 0.01\nedge 3 4 0.01\n", encoding="utf-8")
        qasm = write_random_qasm(tmp_path / "in.qasm")
        errors = []
        for argv in (["synth", qasm, "--arch", str(split)], ["bench", "--arch", str(split), "--sizes", "5"]):
            assert main(argv + FAST) == 2
            errors.append(capsys.readouterr().err)
        assert errors == ["error: mapping search requires a connected coupling graph; split.arch is disconnected\n"] * 2

    def test_arch_reports_a_disconnected_device_without_warning(self, tmp_path, capsys):
        split = tmp_path / "split.arch"
        split.write_text("qubits 5\nedge 0 1 0.01\nedge 2 3 0.01\nedge 3 4 0.01\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["arch", str(split)]) == 0
        captured = capsys.readouterr()
        assert "connected: no" in captured.out and captured.err == ""

    def test_failed_recheck_exits_3(self, tmp_path, monkeypatch, capsys):
        import cnotsynth.cli

        monkeypatch.setattr(cnotsynth.cli, "circuit_failure", lambda *args: "forced mismatch")
        out = tmp_path / "out.qasm"
        assert main(["synth", write_random_qasm(tmp_path / "in.qasm"), "--arch", "quito", *FAST,
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal verification failed: forced mismatch\n" and captured.out == ""
        assert not out.exists()

    def test_internal_error_exits_3(self, tmp_path, monkeypatch, capsys):
        # A row pass that leaks row 0 into row 1, behind the tracked inverse's
        # back, leaves row 1 short of its unit vector in the next pass.
        import cnotsynth.synth

        real = cnotsynth.synth.eliminate_row

        def leaky(rows, *args):
            ops = real(rows, *args)
            rows[1] ^= rows[0]
            return ops

        monkeypatch.setattr(cnotsynth.synth, "eliminate_row", leaky)
        p = tmp_path / "c.qasm"
        p.write_text("qreg q[2]; cx q[0],q[1];\n", encoding="utf-8")
        out = tmp_path / "out.qasm"
        assert main(["synth", str(p), "--arch", "linear(2)", *FAST, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: row 1 failed to reduce to a unit vector\n" and captured.out == ""
        assert not out.exists()

    def test_missing_qasm_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.qasm"
        assert main(["synth", str(missing), "--arch", "quito", *FAST]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no such file: {missing}\n" and captured.out == ""

    def test_negative_shots_exits_2(self, tmp_path, capsys):
        p = write_random_qasm(tmp_path / "in.qasm")
        out = tmp_path / "out.qasm"
        assert main(["synth", p, "--arch", "quito", *FAST, "--shots", "-5", "--out", str(out)]) == 2
        assert "--shots" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.qasm"
        p.write_text("qreg q[2]; bogus q[0];", encoding="utf-8")
        assert main(["synth", str(p), "--arch", "quito", *FAST]) == 2
        # The error names the file and the line and column of the statement.
        p.write_text("qreg q[2];\ncx q[0],q[1];\ncx q[1],q[0]\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["synth", str(p), "--arch", "quito", *FAST]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {p}: line 3, col 1: statement missing terminating ';': 'cx q[1],q[0]'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("bad", ["qasm", "arch"])
    def test_undecodable_file_is_named(self, bad, tmp_path, capsys):
        files = {"qasm": write_random_qasm(tmp_path / "in.qasm"), "arch": "quito"}
        files[bad] = str(tmp_path / f"bad.{bad}")
        Path(files[bad]).write_bytes(b"\xffqreg q[2];\n")
        assert main(["synth", files["qasm"], "--arch", files["arch"], *FAST]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {files[bad]}: 'utf-8' codec can't decode byte 0xff") and captured.out == ""

    def test_negative_seed_with_shots_exits_2(self, tmp_path, capsys):
        p = write_random_qasm(tmp_path / "in.qasm")
        out = tmp_path / "out.qasm"
        assert main(["synth", p, "--arch", "quito", *FAST, "--shots", "10", "--seed", "-1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "-1" in err
        assert not out.exists()

    def test_negative_seed_without_shots_synthesizes(self, tmp_path, capsys):
        p = write_random_qasm(tmp_path / "in.qasm")
        out, mapping = tmp_path / "out.qasm", tmp_path / "map.json"
        assert main(["synth", p, "--arch", "quito", *FAST, "--seed", "-1",
                     "--out", str(out), "--map-out", str(mapping)]) == 0
        assert main(["verify", p, str(out), str(mapping)]) == 0

    def test_shots_on_mixed_circuit_exits_2_before_mapping(self, tmp_path, monkeypatch, capsys):
        import cnotsynth.synth

        calls = []
        monkeypatch.setattr(cnotsynth.synth, "optimize_mapping", lambda *args: calls.append(args))
        p = tmp_path / "mixed.qasm"
        p.write_text("qreg q[3]; creg c[3];\nh q[0];\ncx q[0],q[2];\nmeasure q[2] -> c[2];\n", encoding="utf-8")
        out = tmp_path / "out.qasm"
        assert main(["synth", str(p), "--arch", "quito", *FAST, "--shots", "10", "--out", str(out)]) == 2
        assert "--shots requires a CNOT-only circuit" in capsys.readouterr().err
        assert calls == [] and not out.exists()

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

    def test_mixed_circuit_keeps_measurement_bits(self, tmp_path, capsys):
        bits = [3, 0, 5, 1, 4, 2]
        lines = ["qreg q[6]; creg c[6];", "h q[0];", "cx q[0],q[3]; cx q[1],q[5]; cx q[2],q[4];", "x q[5];"]
        lines += [f"measure q[{q}] -> c[{b}];" for q, b in enumerate(bits)]
        p = tmp_path / "mixed.qasm"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out, mapping = tmp_path / "out.qasm", tmp_path / "map.json"
        assert main(["synth", str(p), "--arch", "guadalupe", *FAST,
                     "--out", str(out), "--map-out", str(mapping)]) == 0
        assign = json.loads(mapping.read_text())["assign"]
        measures = [g for g in parse_qasm(out.read_text()).gates if isinstance(g, Measure)]
        assert [(g.qubit, g.clbit) for g in measures] == [(assign[q], b) for q, b in enumerate(bits)]

    def test_stdout_carries_only_qasm_without_out_flag(self, tmp_path, capsys):
        inp = write_random_qasm(tmp_path / "in.qasm", m=10, seed=6)
        assert main(["synth", inp, "--arch", "quito", *FAST]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("OPENQASM 2.0;")
        assert "cnot=" not in captured.out
        assert "cnot=" in captured.err

    @pytest.mark.parametrize("arch,n,a,b", [("grid(6,6)", 36, 7, 5), ("grid(8,8)", 64, 9, 7)], ids=["grid66", "grid88"])
    def test_full_grid_compiles_inside_a_minute(self, arch, n, a, b, tmp_path, capsys):
        # With the default flags, grid(6,6)'s full-device constructions search
        # residuals of up to 32 vertices for a Hamiltonian path, and grid(8,8)'s
        # compute the cut points of residuals of up to 64 vertices.
        inp, out, mapping = tmp_path / "in.qasm", tmp_path / "out.qasm", tmp_path / "map.json"
        inp.write_text(cnot_ring_qasm(n, a, b), encoding="utf-8")
        start = time.perf_counter()
        assert main(["synth", str(inp), "--arch", arch, "--out", str(out), "--map-out", str(mapping)]) == 0
        assert main(["verify", str(inp), str(out), str(mapping)]) == 0
        assert time.perf_counter() - start < 60

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

    def test_missing_mapping_file_exits_2(self, tmp_path, capsys):
        inp, out, _ = self.synth_pair(tmp_path)
        capsys.readouterr()
        missing = tmp_path / "missing.json"
        assert main(["verify", inp, str(out), str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no such file: {missing}\n" and captured.out == ""

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

    @pytest.mark.parametrize("assign,failure", [
        ([0, 1, 2], "mapping covers 3 qubits, 2 needed"),
        ([0, 7], "mapping uses vertices outside the device"),
    ])
    def test_mapping_that_does_not_place_the_original_exits_2(self, tmp_path, capsys, assign, failure):
        p = tmp_path / "c.qasm"
        p.write_text("qreg q[2]; cx q[0],q[1];\n", encoding="utf-8")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"arch": "quito", "assign": assign}), encoding="utf-8")
        assert main(["verify", str(p), str(p), str(mapping)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {mapping}: {failure}\n"

    def test_register_wider_than_device_exits_2(self, tmp_path, capsys):
        # The quito output with its register widened: every gate still fits.
        inp, out, mapping = self.synth_pair(tmp_path)
        text = out.read_text()
        assert "qreg q[5];" in text
        out.write_text(text.replace("qreg q[5];", "qreg q[9];"), encoding="utf-8")
        assert main(["verify", inp, str(out), str(mapping)]) == 2
        captured = capsys.readouterr()
        assert "equivalent" not in captured.out
        assert "declares 9 qubits, wider than the device's 5" in captured.err

    def test_register_narrower_than_mapping_exits_1(self, tmp_path, capsys):
        # The output declares no qubit to host logical qubits 3 and 4.
        original = tmp_path / "o.qasm"
        original.write_text("qreg q[5]; cx q[0],q[1];\n", encoding="utf-8")
        synthesized = tmp_path / "s.qasm"
        synthesized.write_text("qreg q[3]; creg c[5]; cx q[0],q[1];\n", encoding="utf-8")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"arch": "quito", "assign": [0, 1, 2, 3, 4]}), encoding="utf-8")
        assert main(["verify", str(original), str(synthesized), str(mapping)]) == 1
        assert capsys.readouterr().out == (
            "mismatch: logical qubit 3 sits on physical qubit 3, past the output's 3 qubits\n")

    def test_spare_leak_names_the_physical_qubit(self, tmp_path, capsys):
        # Logical 0 sits on qubit 2 and logical 1 on qubit 0; CNOT(2,1) leaks
        # logical 0 into the spare qubit 1.
        original = tmp_path / "o.qasm"
        original.write_text("qreg q[2];\n", encoding="utf-8")
        synthesized = tmp_path / "s.qasm"
        synthesized.write_text("qreg q[5]; cx q[2],q[1];\n", encoding="utf-8")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"arch": "quito", "assign": [2, 0]}), encoding="utf-8")
        assert main(["verify", str(original), str(synthesized), str(mapping)]) == 1
        assert capsys.readouterr().out == "mismatch: ancilla row 1 depends on logical qubits\n"

    def test_identity_pair(self, tmp_path, capsys):
        p = tmp_path / "id.qasm"
        p.write_text("qreg q[2];\n", encoding="utf-8")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"arch": "linear(2)", "n": 2, "assign": [0, 1]}), encoding="utf-8")
        assert main(["verify", str(p), str(p), str(mapping)]) == 0

    def test_empty_original_accepts_cancelling_cnots(self, tmp_path, capsys):
        # An empty original is one empty CNOT run, checked by parity as before.
        original, synthesized = tmp_path / "o.qasm", tmp_path / "s.qasm"
        original.write_text("qreg q[2];\n", encoding="utf-8")
        synthesized.write_text("qreg q[2]; cx q[0],q[1]; cx q[0],q[1];\n", encoding="utf-8")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"arch": "linear(2)", "n": 2, "assign": [0, 1]}), encoding="utf-8")
        assert main(["verify", str(original), str(synthesized), str(mapping)]) == 0

    @pytest.mark.parametrize("field,value", [
        ("arch", 5), ("arch", None), ("arch", ["quito"]),
        ("assign", [0.9, 1.2]), ("assign", [False, True]), ("assign", "01"), ("assign", [0, "1"]),
    ], ids=["arch-int", "arch-null", "arch-list", "assign-floats", "assign-bools", "assign-string", "assign-mixed"])
    def test_mapping_file_with_wrong_types_exits_2(self, tmp_path, capsys, field, value):
        p = tmp_path / "c.qasm"
        p.write_text("qreg q[2]; cx q[0],q[1];\n", encoding="utf-8")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"arch": "quito", "n": 2, "assign": [0, 1], field: value}), encoding="utf-8")
        assert main(["verify", str(p), str(p), str(mapping)]) == 2
        assert "malformed mapping file" in capsys.readouterr().err


def _edit_first(prefix, edit, skip=0):
    """A tamper that replaces the first line starting with ``prefix``, after ``skip`` such lines, by ``edit(line)``."""
    def tamper(lines):
        k = [i for i, line in enumerate(lines) if line.startswith(prefix)][skip]
        return lines[:k] + edit(lines[k]) + lines[k + 1:]
    return tamper


def _shift(register, modulus):
    """An edit that moves the first index into ``register`` up by one, modulo ``modulus``."""
    return lambda line: [re.sub(rf"{register}\[(\d+)\]", lambda m: f"{register}[{(int(m[1]) + 1) % modulus}]", line, 1)]


class TestVerifyMixed:
    """``verify`` on synth's own mixed output, on quito."""

    def synth_pair(self, tmp_path, text=MIXED_QASM):
        inp, out, mapping = tmp_path / "in.qasm", tmp_path / "out.qasm", tmp_path / "map.json"
        inp.write_text(text, encoding="utf-8")
        assert main(["synth", str(inp), "--arch", "quito", *FAST, "--out", str(out), "--map-out", str(mapping)]) == 0
        return str(inp), out, str(mapping)

    def test_round_trip_verifies(self, tmp_path, capsys):
        inp, out, mapping = self.synth_pair(tmp_path)
        assert main(["verify", inp, str(out), mapping]) == 0
        assert capsys.readouterr().out.endswith("\nequivalent\n")

    def test_output_keeps_the_input_creg(self, tmp_path):
        # The input declares creg c[3] on a 5-qubit device.
        _, out, _ = self.synth_pair(tmp_path)
        assert "\ncreg c[3];\n" in out.read_text()

    @pytest.mark.parametrize("tamper", [
        _edit_first("h ", lambda line: []),
        _edit_first("x ", lambda line: ["z" + line[1:]]),
        _edit_first("measure ", _shift("c", 3)),
        _edit_first("h ", _shift("q", 5)),
        lambda lines: lines + ["z q[0];"],
        _edit_first("cx ", lambda line: [line, "cx q[0],q[4];", "cx q[0],q[4];"]),
        # The second measurement follows a measurement, not a CNOT run, and its bit is not its qubit.
        _edit_first("measure ", lambda line: [re.sub(r"measure q\[(\d+)\] -> c\[(\d+)\]", r"cx q[\1],q[\2]", line)], skip=1),
        _edit_first("creg ", lambda line: ["creg c[9];"]),
    ], ids=["dropped-h", "x-becomes-z", "measure-into-other-bit", "h-on-other-qubit",
            "extra-trailing-gate", "off-edge-cx-in-run", "measure-becomes-cx-on-its-bit", "wider-creg"])
    def test_tampered_output_exits_1(self, tmp_path, capsys, tamper):
        inp, out, mapping = self.synth_pair(tmp_path)
        lines = out.read_text().splitlines()
        assert tamper(lines) != lines
        out.write_text("\n".join(tamper(lines)) + "\n", encoding="utf-8")
        assert main(["verify", inp, str(out), mapping]) == 1
        assert "mismatch" in capsys.readouterr().out

    def test_creg_width_mismatch_is_named(self, tmp_path, capsys):
        # The gates still match: only the declared classical register differs.
        inp, out, mapping = self.synth_pair(tmp_path)
        out.write_text(out.read_text().replace("creg c[3];", "creg c[9];"), encoding="utf-8")
        assert main(["verify", inp, str(out), mapping]) == 1
        assert capsys.readouterr().out.endswith("\nmismatch: classical register has 9 bits, original has 3\n")

    def test_cancelling_cnot_run_emits_no_cnot_and_verifies(self, tmp_path, capsys):
        text = "qreg q[3]; creg c[3];\nh q[0];\ncx q[0],q[1];\ncx q[0],q[1];\nh q[0];\n"
        inp, out, mapping = self.synth_pair(tmp_path, text)
        assert "cx" not in out.read_text()
        assert main(["verify", inp, str(out), mapping]) == 0

    def test_one_qubit_gate_outside_device_exits_2(self, tmp_path, capsys):
        original, synthesized = tmp_path / "o.qasm", tmp_path / "s.qasm"
        original.write_text("qreg q[2];\nh q[0];\n", encoding="utf-8")
        synthesized.write_text("qreg q[9];\nh q[8];\n", encoding="utf-8")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"arch": "quito", "n": 2, "assign": [0, 1]}), encoding="utf-8")
        assert main(["verify", str(original), str(synthesized), str(mapping)]) == 2
        assert "outside the device" in capsys.readouterr().err


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

    def test_parametric_arch_names(self, tmp_path):
        # A comma inside grid(2,3) belongs to the name, and the CSV quotes it.
        argv = ["bench", "--arch", "grid(2,3),quito", "--sizes", "10", "--instances", "1", *FAST]
        reports = {}
        for fmt in ("csv", "table", "json"):
            out = tmp_path / f"bench.{fmt}"
            assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
            reports[fmt] = out.read_text()
        with open(tmp_path / "bench.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 8 for row in rows)
        assert [row[0] for row in rows[1:]] == ["grid(2,3)", "grid(2,3):mean", "quito", "quito:mean"]
        assert [row[1] for row in rows[1:]] == ["6", "6", "5", "5"]
        table_names = [line.split()[0] for line in reports["table"].splitlines()[1:]]
        assert table_names == ["grid(2,3)", "grid(2,3):mean", "quito", "quito:mean"]
        assert [row["arch"] for row in json.loads(reports["json"])] == table_names

    def test_dense_sixteen_qubit_rows_pass_the_recheck(self, tmp_path):
        # 300 gates give dense 16 x 16 matrices, which go through synthesize's
        # inverse and bench's own recheck (exit 3 on a failure).
        out = tmp_path / "bench.csv"
        assert main(["bench", "--arch", "grid(4,4),guadalupe", "--sizes", "300", "--instances", "3",
                     "--iterations", "2", "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith('"grid(4,4)",16,300,')

    def test_bad_size_exits_2(self, capsys):
        assert main(["bench", "--arch", "quito", "--sizes", "ten", "--instances", "1"]) == 2

    @pytest.mark.parametrize("flags,reason", [
        (["--arch", " , ", "--sizes", "5"], "bench needs at least one architecture and one size"),
        (["--arch", "quito", "--sizes", ","], "bench needs at least one architecture and one size"),
        (["--arch", "quito", "--sizes", "5", "--instances", "0"], "--instances must be >= 1"),
    ], ids=["no-arch", "no-size", "no-instance"])
    def test_empty_sweep_exits_2(self, flags, reason, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", *flags, *FAST, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {reason}\n" and captured.out == ""
        assert not out.exists()

    def test_failed_recheck_exits_3(self, tmp_path, monkeypatch, capsys):
        import cnotsynth.cli

        monkeypatch.setattr(cnotsynth.cli, "circuit_failure", lambda *args: "forced mismatch")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--arch", "quito", "--sizes", "10", "--instances", "1", *FAST, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal verification failed (quito, size 10, instance 0): forced mismatch\n"
        assert captured.out == "" and not out.exists()

    def test_negative_shots_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--arch", "quito", "--sizes", "10", "--instances", "1",
                     *FAST, "--shots", "-2", "--out", str(out)]) == 2
        assert "--shots" in capsys.readouterr().err
        assert not out.exists()

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

    def test_negative_shots_exits_2(self, tmp_path, capsys):
        p = tmp_path / "c.qasm"
        p.write_text("qreg q[5]; cx q[0],q[1];\n", encoding="utf-8")
        assert main(["fidelity", str(p), "--arch", "quito", "--shots", "-3"]) == 2
        captured = capsys.readouterr()
        assert "--shots" in captured.err and "shots=-3" not in captured.out

    def test_shots_on_mixed_circuit_exits_2(self, tmp_path, capsys):
        p = tmp_path / "c.qasm"
        p.write_text("qreg q[5]; h q[0]; cx q[0],q[1];\n", encoding="utf-8")
        assert main(["fidelity", str(p), "--arch", "quito", "--shots", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --shots requires a CNOT-only circuit (Monte-Carlo model)\n"
        assert captured.out == ""
        assert main(["fidelity", str(p), "--arch", "quito"]) == 0

    def test_non_nn_circuit_exits_2(self, tmp_path, capsys):
        p = tmp_path / "c.qasm"
        p.write_text("qreg q[5]; cx q[0],q[4];\n", encoding="utf-8")
        assert main(["fidelity", str(p), "--arch", "quito"]) == 2

    @pytest.mark.parametrize("gate", ["h q[7];", "measure q[5] -> c[0];"], ids=["h", "measure"])
    def test_gate_off_device_exits_2(self, tmp_path, capsys, gate):
        p = tmp_path / "c.qasm"
        p.write_text(f"qreg q[9]; creg c[9]; {gate}\n", encoding="utf-8")
        assert main(["fidelity", str(p), "--arch", "quito"]) == 2
        captured = capsys.readouterr()
        assert "gate 0: qubit" in captured.err and "not on the device" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["-0.5", "1.5", "nan"])
    def test_one_q_error_outside_unit_interval_exits_2(self, tmp_path, capsys, value):
        p = tmp_path / "c.qasm"
        p.write_text("qreg q[5]; h q[0]; cx q[0],q[1];\n", encoding="utf-8")
        assert main(["fidelity", str(p), "--arch", "quito", "--one-q-error", value]) == 2
        captured = capsys.readouterr()
        assert f"got {value}" in captured.err and "esp=" not in captured.out

    def test_one_q_error_bounds_accepted(self, tmp_path, capsys):
        p = tmp_path / "c.qasm"
        p.write_text("qreg q[5]; h q[0]; cx q[0],q[1];\n", encoding="utf-8")
        assert main(["fidelity", str(p), "--arch", "quito", "--one-q-error", "0"]) == 0
        assert "esp=0.983690" in capsys.readouterr().out
        assert main(["fidelity", str(p), "--arch", "quito", "--one-q-error", "1"]) == 0
        assert "esp=0.000000" in capsys.readouterr().out

    def test_negative_seed_with_shots_exits_2(self, tmp_path, capsys):
        p = tmp_path / "c.qasm"
        p.write_text("qreg q[5]; cx q[0],q[1];\n", encoding="utf-8")
        assert main(["fidelity", str(p), "--arch", "quito", "--shots", "10", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--seed" in captured.err and "-1" in captured.err and captured.out == ""
        assert main(["fidelity", str(p), "--arch", "quito", "--seed", "-1"]) == 0
        assert "seed=-1" in capsys.readouterr().out

    def test_csv_format(self, tmp_path, capsys):
        p = tmp_path / "c.qasm"
        p.write_text("qreg q[5]; cx q[0],q[1];\n", encoding="utf-8")
        assert main(["fidelity", str(p), "--arch", "quito", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "esp,mc_fidelity,shots,seed\n0.983690,,0,0\n"
        flags = ["fidelity", str(p), "--arch", "quito", "--shots", "2000", "--seed", "4"]
        assert main([*flags, "--format", "json"]) == 0
        mc = json.loads(capsys.readouterr().out)["mc_fidelity"]
        assert main([*flags, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines() == ["esp,mc_fidelity,shots,seed", f"0.983690,{mc:.6f},2000,4"]


class TestParserBuiltOnce:
    def test_two_calls_build_one_parser(self, tmp_path, monkeypatch, capsys):
        import cnotsynth.cli

        builds = []
        build = cnotsynth.cli.build_parser
        monkeypatch.setattr(cnotsynth.cli, "build_parser", lambda: builds.append(1) or build())
        cnotsynth.cli._parser.cache_clear()
        try:
            assert main(["arch", "quito"]) == 0
            assert main(["arch", "manila", "--format", "json"]) == 0
            assert len(builds) == 1
            # A command patched after the parser was built still sees the patch.
            monkeypatch.setattr(cnotsynth.cli, "circuit_failure", lambda *args: "forced mismatch")
            assert main(["synth", write_random_qasm(tmp_path / "in.qasm"), "--arch", "quito", *FAST,
                         "--out", str(tmp_path / "out.qasm")]) == 3
            assert len(builds) == 1
        finally:
            cnotsynth.cli._parser.cache_clear()
        assert "forced mismatch" in capsys.readouterr().err
