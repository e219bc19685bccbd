"""Noise-aware nearest-neighbor synthesis of CNOT circuits.

Maps logical qubits onto an error-weighted coupling graph with a key-qubit
priority model refined by tabu search, then eliminates the circuit's GF(2)
parity matrix layer by layer along minimum-noise Steiner trees.  The output
is an equivalent circuit every gate of which respects the device's
connectivity, together with gate-count, depth and fidelity reports.
"""
from .arch import (
    ArchError,
    CouplingGraph,
    articulation_points,
    builtin,
    has_hamiltonian_path,
    induced_subgraph,
    key_qubits,
    parse_arch,
    remove_vertex,
    write_arch,
)
from .circuit import (
    CNOT,
    Circuit,
    FidelityReport,
    Measure,
    OneQubit,
    QasmError,
    depth,
    esp,
    fidelity_report,
    monte_carlo_fidelity,
    parse_qasm,
    random_cnot_circuit,
    segment_and_synthesize,
    write_qasm,
)
from .gf2 import ParityMatrix, random_invertible, solve_gf2
from .mapping import (
    Mapping,
    TabuConfig,
    connectivity_factor,
    initial_mapping,
    mapping_objective,
    optimize_mapping,
    replay_is_valid,
)
from .steiner import (
    SteinerTree,
    best_path,
    min_noise_steiner_tree,
    path_fidelity,
    postorder,
    preorder,
)
from .synth import (
    SynthesisResult,
    eliminate_column,
    eliminate_row,
    synthesize,
    target_aided_rows,
    verify_equivalence,
)

__all__ = [
    "ArchError",
    "CNOT",
    "Circuit",
    "CouplingGraph",
    "FidelityReport",
    "Mapping",
    "Measure",
    "OneQubit",
    "ParityMatrix",
    "QasmError",
    "SteinerTree",
    "SynthesisResult",
    "TabuConfig",
    "articulation_points",
    "best_path",
    "builtin",
    "connectivity_factor",
    "depth",
    "eliminate_column",
    "eliminate_row",
    "esp",
    "fidelity_report",
    "has_hamiltonian_path",
    "induced_subgraph",
    "initial_mapping",
    "key_qubits",
    "mapping_objective",
    "min_noise_steiner_tree",
    "monte_carlo_fidelity",
    "optimize_mapping",
    "parse_arch",
    "parse_qasm",
    "path_fidelity",
    "postorder",
    "preorder",
    "random_cnot_circuit",
    "random_invertible",
    "remove_vertex",
    "replay_is_valid",
    "segment_and_synthesize",
    "solve_gf2",
    "synthesize",
    "target_aided_rows",
    "verify_equivalence",
    "write_arch",
    "write_qasm",
]

__version__ = "0.1.0"
