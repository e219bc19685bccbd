"""The package surface: the public API, and the names the benchmark's
layer tracer wraps in each cnotsynth module."""
import importlib
import importlib.util
from pathlib import Path

import cnotsynth

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
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
