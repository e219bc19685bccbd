"""Noise-aware nearest-neighbor synthesis of CNOT circuits.

Maps logical qubits onto an error-weighted coupling graph with a key-qubit
priority model refined by tabu search, then eliminates the circuit's GF(2)
parity matrix layer by layer along minimum-noise Steiner trees.  The output
is an equivalent circuit every gate of which respects the device's
connectivity, together with gate-count, depth and fidelity reports.
"""
from .arch import ArchError, CouplingGraph, builtin, parse_arch
from .circuit import (
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
    write_qasm,
)
from .gf2 import ParityMatrix
from .mapping import Mapping, TabuConfig, optimize_mapping
from .synth import SynthesisResult, synthesize, verify_equivalence

# The API documented in README's "Library use"; graph, Steiner-tree,
# mapping-construction and elimination internals stay importable from their
# modules.
__all__ = [
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

__version__ = "0.1.0"
