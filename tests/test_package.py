"""The package surface: the public API, the names the benchmark's layer
tracer wraps in each cnotsynth module, and which paths load numpy."""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import cnotsynth
from cnotsynth.circuit import Circuit, monte_carlo_fidelity, parse_qasm, random_cnot_circuit, write_qasm

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

#: The names README's "Library use" documents.
PUBLIC_API = [
    "ArchError",
    "CNOT",
    "Circuit",
    "CouplingGraph",
    "Mapping",
    "Measure",
    "OneQubit",
    "ParityMatrix",
    "QasmError",
    "SynthesisResult",
    "TabuConfig",
    "builtin",
    "depth",
    "esp",
    "monte_carlo_fidelity",
    "optimize_mapping",
    "parse_arch",
    "parse_qasm",
    "random_cnot_circuit",
    "segment_and_synthesize",
    "synthesize",
    "verify_equivalence",
    "write_qasm",
]


def test_public_api_is_pinned():
    assert cnotsynth.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert hasattr(cnotsynth, name), name


def test_public_api_is_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    for name in PUBLIC_API:
        assert f"`{name}`" in section or f"cs.{name}" in section, name


def _span_points():
    """``SPAN_POINTS`` of the tracer, loaded without installing any wrapper."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_POINTS


def _module(name):
    return importlib.import_module(f"cnotsynth.{name}" if name else "cnotsynth")


def test_tracer_hooks_exist():
    points = _span_points()
    assert points
    for span, home, attr, callers in points:
        target = getattr(_module(home), attr, None)
        assert callable(target), f"{span}: cnotsynth.{home or '<package>'} has no {attr}"
        for caller in callers:
            module = _module(caller)
            assert getattr(module, attr, None) is target, f"{span}: {module.__name__}.{attr} is missing"
    assert callable(_module("gf2").ParityMatrix.rank)


def _fresh(code: str, cwd: Path) -> object:
    """Run ``code`` in a fresh interpreter with ``src`` first on the path; it
    prints one JSON value as its last line of stdout, which is returned."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_does_not_load_numpy(tmp_path):
    got = _fresh("import json, sys, cnotsynth; print(json.dumps('numpy' in sys.modules))", tmp_path)
    assert got is False


def test_cli_without_shots_does_not_load_numpy(tmp_path):
    (tmp_path / "in.qasm").write_text(write_qasm(random_cnot_circuit(5, 40, 3)), encoding="utf-8")
    code = """
import json, sys
from cnotsynth.cli import main
steps = {}
for name, argv in [
    ("synth", ["synth", "in.qasm", "--arch", "quito", "--out", "out.qasm", "--map-out", "map.json"]),
    ("verify", ["verify", "in.qasm", "out.qasm", "map.json"]),
    ("arch", ["arch", "quito"]),
    ("fidelity", ["fidelity", "out.qasm", "--arch", "quito"]),
    ("bench", ["bench", "--arch", "quito", "--sizes", "5", "--instances", "1", "--iterations", "2"]),
]:
    steps[name] = [main(argv), "numpy" in sys.modules]
print(json.dumps(steps))
"""
    got = _fresh(code, tmp_path)
    assert got == {name: [0, False] for name in ("synth", "verify", "arch", "fidelity", "bench")}
    assert parse_qasm((tmp_path / "out.qasm").read_text(encoding="utf-8")).is_cnot_only()


def test_negative_seed_is_rejected_before_numpy_loads(tmp_path):
    code = """
import json, sys
from cnotsynth import CNOT, Circuit, builtin, monte_carlo_fidelity
try:
    monte_carlo_fidelity(Circuit(2, (CNOT(0, 1),)), builtin("linear(2)"), 10, -1)
except ValueError as exc:
    print(json.dumps([str(exc), "numpy" in sys.modules]))
"""
    message, loaded = _fresh(code, tmp_path)
    assert "-1" in message and loaded is False


def test_array_paths_load_numpy(tmp_path):
    code = """
import json, sys
from cnotsynth import ParityMatrix
m = ParityMatrix.from_rows([0b01, 0b11])
steps = {"from_rows": "numpy" in sys.modules}
bits = m.bits
steps["bits"] = ["numpy" in sys.modules, str(bits.dtype), bits.tolist()]
print(json.dumps(steps))
"""
    got = _fresh(code, tmp_path)
    assert got == {"from_rows": False, "bits": [True, "uint8", [[1, 0], [1, 1]]]}
    code = """
import json, sys
from cnotsynth import ParityMatrix
m = ParityMatrix([[1, 0], [0, 1]])
loaded = "numpy" in sys.modules
print(json.dumps([loaded, m.is_identity(), m.bits.tolist()]))
"""
    assert _fresh(code, tmp_path) == [True, True, [[1, 0], [0, 1]]]


def test_fidelity_with_shots_loads_numpy(tmp_path):
    circuit = Circuit(5, random_cnot_circuit(2, 6, 1).gates)
    (tmp_path / "c.qasm").write_text(write_qasm(circuit), encoding="utf-8")
    code = """
import contextlib, io, json, sys
from cnotsynth.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    status = main(["fidelity", "c.qasm", "--arch", "quito", "--shots", "10", "--seed", "1", "--format", "json"])
print(json.dumps([status, "numpy" in sys.modules, json.loads(buf.getvalue())]))
"""
    status, loaded, report = _fresh(code, tmp_path)
    assert (status, loaded) == (0, True)
    assert report["mc_fidelity"] == monte_carlo_fidelity(circuit, cnotsynth.builtin("quito"), 10, 1)
