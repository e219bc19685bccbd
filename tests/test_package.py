"""The package surface: the public API, the names the benchmark's layer
tracer wraps in each cnotsynth module, no code kept for the tests alone,
that it runs with numpy unimportable, and that the command line writes the
same files under any hash seed."""
import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cnotsynth
from conftest import MIXED_QASM, QASM_HEADER, cnot_ring_qasm
from cnotsynth.circuit import Circuit, monte_carlo_fidelity, parse_qasm, random_cnot_circuit, write_qasm
from cnotsynth.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "perfbench"
TRACING = BENCHMARK / "tracing.py"
PACKAGE = ROOT / "src" / "cnotsynth"

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


def test_every_definition_serves_the_package():
    """Each module-level function or class is referred to by other package
    code (a name in its module outside its own definition, or an import),
    exported in ``__all__``, or wrapped by the layer tracer.  Code that only
    the tests call belongs in ``tests/conftest.py``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    kinds = (ast.FunctionDef, ast.ClassDef)
    used = {(home, attr) for _, home, attr, _ in _span_points()}
    used.update(("", name) for name in cnotsynth.__all__)
    for module, tree in trees.items():
        for top in tree.body:
            own = top.name if isinstance(top, kinds) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add((module, node.id))
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    used.update((node.module, alias.name) for alias in node.names)
    unused = [
        f"{module}.{top.name}" for module, tree in trees.items() for top in tree.body
        if isinstance(top, kinds) and (module, top.name) not in used and ("", top.name) not in used
    ]
    assert unused == []


def test_one_integer_reader():
    """``arch`` is the only module that imports ``operator.index``: every
    other module reads caller ids and counts through ``arch.integer``."""
    importers = sorted(
        path.stem for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "operator"
        and any(alias.name == "index" for alias in node.names)
        or isinstance(node, ast.Import) and any(alias.name == "operator" for alias in node.names)
    )
    assert importers == ["arch"]


def test_no_module_imports_numpy():
    """Every import statement of the package, function-local ones included,
    names a module other than numpy: the package runs on the standard library."""
    imports = [
        (path.stem, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
    ]
    assert imports == []


def test_every_public_method_serves_the_package():
    """Each public method or property of a class in ``__all__`` is named as an
    attribute by package code, or as ``.name`` or ```name`` by the benchmark
    or README.  A method that only the tests call belongs in
    ``tests/conftest.py``."""
    named = {
        node.attr for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Attribute)
    }
    texts = [path.read_text(encoding="utf-8") for path in [ROOT / "README.md", *sorted(BENCHMARK.glob("*.py"))]]
    kinds = (property, classmethod, staticmethod)
    unused = [
        f"{name}.{attr}" for name in cnotsynth.__all__ if isinstance(cls := getattr(cnotsynth, name), type)
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and (callable(value) or isinstance(value, kinds)) and attr not in named
        and not any(re.search(rf"[.`]{attr}\b", text) for text in texts)
    ]
    assert unused == []


def _python(args: list[str], cwd: Path, **env: str) -> str:
    """Run a fresh interpreter on ``args`` with ``src`` first on the path and
    ``env`` added to the environment; it must exit 0, and its stdout is returned."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _fresh(code: str, cwd: Path) -> object:
    """Run ``code`` in a fresh interpreter; it prints one JSON value as its
    last line of stdout, which is returned."""
    return json.loads(_python(["-c", code], cwd).splitlines()[-1])


def _fresh_without_numpy(code: str, cwd: Path) -> object:
    """``_fresh`` with numpy made unimportable before ``code`` runs."""
    return _fresh('import sys\nsys.modules["numpy"] = None\n' + code, cwd)


def test_import_does_not_load_numpy(tmp_path):
    got = _fresh("import json, sys, cnotsynth; print(json.dumps('numpy' in sys.modules))", tmp_path)
    assert got is False
    code = """
import json
import cnotsynth, cnotsynth.cli
try:
    import numpy
except ImportError:
    print(json.dumps("blocked"))
"""
    assert _fresh_without_numpy(code, tmp_path) == "blocked"


def test_cli_without_shots_does_not_load_numpy(tmp_path):
    (tmp_path / "in.qasm").write_text(write_qasm(random_cnot_circuit(5, 40, 3)), encoding="utf-8")
    code = """
import contextlib, io, json
from cnotsynth.cli import main
steps = {}
for name, argv in [
    ("synth", ["synth", "in.qasm", "--arch", "quito", "--out", "out.qasm", "--map-out", "map.json"]),
    ("verify", ["verify", "in.qasm", "out.qasm", "map.json"]),
    ("arch", ["arch", "quito"]),
    ("fidelity", ["fidelity", "out.qasm", "--arch", "quito"]),
    ("bench", ["bench", "--arch", "quito", "--sizes", "5", "--instances", "1", "--iterations", "2"]),
]:
    with contextlib.redirect_stdout(io.StringIO()):
        steps[name] = main(argv)
print(json.dumps(steps))
"""
    got = _fresh_without_numpy(code, tmp_path)
    assert got == {name: 0 for name in ("synth", "verify", "arch", "fidelity", "bench")}
    assert parse_qasm((tmp_path / "out.qasm").read_text(encoding="utf-8")).is_cnot_only()


def test_array_paths_load_numpy(tmp_path):
    """The matrix constructors, which once loaded numpy, build from lists
    and from int rows with numpy unimportable."""
    code = """
import json
from cnotsynth import ParityMatrix
m = ParityMatrix([[1, 0], [1, 1]])
print(json.dumps([m.rows, m == ParityMatrix.from_rows([0b01, 0b11]), ParityMatrix([[1, 0], [0, 1]]) == ParityMatrix.identity(2)]))
"""
    assert _fresh_without_numpy(code, tmp_path) == [[0b01, 0b11], True, True]


def test_fidelity_with_shots_loads_numpy(tmp_path):
    """Monte-Carlo fidelity, which once loaded numpy, runs with numpy
    unimportable: ``fidelity``, ``synth`` and ``bench`` with ``--shots`` exit
    0, and the report gives the in-process sampler's value."""
    circuit = Circuit(5, random_cnot_circuit(2, 6, 1).gates)
    (tmp_path / "c.qasm").write_text(write_qasm(circuit), encoding="utf-8")
    (tmp_path / "in.qasm").write_text(write_qasm(random_cnot_circuit(5, 40, 3)), encoding="utf-8")
    code = """
import contextlib, io, json
from cnotsynth.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    steps = {
        "fidelity": main(["fidelity", "c.qasm", "--arch", "quito", "--shots", "10", "--seed", "1", "--format", "json"]),
    }
    report = json.loads(buf.getvalue())
    steps["synth"] = main(["synth", "in.qasm", "--arch", "quito", "--shots", "100", "--out", "shots.qasm"])
    steps["bench"] = main(["bench", "--arch", "quito", "--sizes", "5", "--instances", "1", "--iterations", "2",
                           "--shots", "100"])
print(json.dumps([steps, report["mc_fidelity"]]))
"""
    steps, mc_fidelity = _fresh_without_numpy(code, tmp_path)
    assert steps == {"fidelity": 0, "synth": 0, "bench": 0}
    assert mc_fidelity == monte_carlo_fidelity(circuit, cnotsynth.builtin("quito"), 10, 1)


def _runs_qasm() -> str:
    """A 12-qubit mixed circuit: 30 runs of 3 to 8 CNOTs, each followed by an
    H, X or Z, then every qubit measured into a permutation of the bits."""
    lines = [QASM_HEADER, "qreg q[12];\ncreg c[12];\n"]
    for r in range(30):
        for k in range(1, 4 + r % 6):
            c = (7 * r + 5 * k) % 12
            lines.append(f"cx q[{c}],q[{(c + 1 + (3 * r + k) % 11) % 12}];\n")
        lines.append(f"{'hxz'[r % 3]} q[{5 * r % 12}];\n")
    lines += [f"measure q[{i}] -> c[{(5 * i + 7) % 12}];\n" for i in range(12)]
    return "".join(lines)


#: A 20-qubit caterpillar, a tree: a 10-qubit spine with one leg per spine qubit.
CATERPILLAR = "qubits 20\n" + "".join(
    [f"edge {i} {i + 1} 0.0{1 + i % 5}\n" for i in range(9)]
    + [f"edge {i} {i + 10} 0.0{1 + (i + 2) % 5}\n" for i in range(10)]
)

#: Synthesis jobs with the default flags: the device and the input circuit.
HASH_SEED_JOBS = {
    # guadalupe has no Hamiltonian path: a full circuit draws its candidates,
    "g16": ("guadalupe", cnot_ring_qasm(16, 5, 3)),
    # and a 12-qubit one leaves four spare qubits, so every construction is partial.
    "g12": ("guadalupe", cnot_ring_qasm(12, 5, 3)),
    # Short CNOT runs between one-qubit gates, eliminated run by run with spare ancillas.
    "runs12": ("guadalupe", _runs_qasm()),
    "mixed": ("quito", MIXED_QASM),
    # tokyo has a Hamiltonian path, which every full construction follows;
    "t20": ("tokyo", cnot_ring_qasm(20, 7, 3)),
    # with eleven spare qubits nearly every candidate placement is disconnected.
    "t9": ("tokyo", cnot_ring_qasm(9, 4, 1)),
    # A tree: every residual's path question is settled from its blocks.
    "c20": ("caterpillar.arch", cnot_ring_qasm(20, 7, 3)),
}


@pytest.mark.parametrize("job", list(HASH_SEED_JOBS))
def test_synth_files_do_not_depend_on_the_hash_seed(job, tmp_path, monkeypatch, capsys):
    """``python -m cnotsynth.cli synth`` under ``PYTHONHASHSEED`` 0 and 1
    writes byte-identical circuits and mappings, and they pass ``verify``."""
    arch, text = HASH_SEED_JOBS[job]
    (tmp_path / "in.qasm").write_text(text, encoding="utf-8")
    (tmp_path / "caterpillar.arch").write_text(CATERPILLAR, encoding="utf-8")
    files = []
    for hash_seed in ("0", "1"):
        out, mapping = f"out{hash_seed}.qasm", f"map{hash_seed}.json"
        argv = ["-m", "cnotsynth.cli", "synth", "in.qasm", "--arch", arch, "--out", out, "--map-out", mapping]
        _python(argv, tmp_path, PYTHONHASHSEED=hash_seed)
        files.append(((tmp_path / out).read_bytes(), (tmp_path / mapping).read_bytes()))
    assert files[0] == files[1]
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "in.qasm", "out0.qasm", "map0.json"]) == 0
    assert capsys.readouterr().out.endswith("equivalent\n")
