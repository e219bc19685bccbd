"""Outside-in layer tracing of cnotsynth, installed from benchmark code.

cnotsynth modules import names with ``from .x import y``, so a wrapper is
installed in the namespace of every *calling* module (``mapping.remove_vertex``,
``synth.solve_gf2``, ...), and ``ParityMatrix.rank`` is wrapped on the class.
``src/`` is never edited.

Each wrapped call is a span (name, start, end, parent, op id).  Per-name
call counts, inclusive time and self time (duration minus the time of the
spans directly inside it) are kept for every op; the full span list is kept
for the first ``SPAN_LOG_OPS`` ops only, because a compile op makes tens of
thousands of spans.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

#: (span name, defining module, attribute, modules to install the wrapper in).
#: Module names are relative to the cnotsynth package; "" is the package.
SPAN_POINTS = [
    ("cli.main", "cli", "main", ("cli",)),
    ("circuit.parse_qasm", "circuit", "parse_qasm", ("cli",)),
    ("circuit.write_qasm", "circuit", "write_qasm", ("cli",)),
    ("circuit.esp", "circuit", "esp", ("cli",)),
    ("circuit.segment_and_synthesize", "circuit", "segment_and_synthesize", ("", "cli")),
    ("mapping.optimize_mapping", "mapping", "optimize_mapping", ("cli", "mapping", "synth")),
    ("mapping.initial_mapping", "mapping", "initial_mapping", ("mapping",)),
    ("mapping.mapping_objective", "mapping", "mapping_objective", ("mapping",)),
    ("arch.remove_vertex", "arch", "remove_vertex", ("mapping", "synth")),
    ("arch.articulation_points", "arch", "articulation_points", ("arch", "mapping")),
    ("arch.has_hamiltonian_path", "arch", "has_hamiltonian_path", ("mapping",)),
    ("arch.induced_subgraph", "arch", "induced_subgraph", ("mapping",)),
    ("synth.synthesize", "synth", "synthesize", ("", "synth")),
    ("synth.replay_is_valid", "mapping", "replay_is_valid", ("synth",)),
    ("synth.eliminate_column", "synth", "eliminate_column", ("synth",)),
    ("synth.eliminate_row", "synth", "eliminate_row", ("synth",)),
    ("synth.verification_failure", "synth", "verification_failure", ("cli",)),
    ("steiner.tree", "steiner", "min_noise_steiner_tree", ("synth",)),
    ("gf2.solve", "gf2", "solve_gf2", ("synth",)),
]
#: Every span name: the points above plus ``ParityMatrix.rank``.
SPAN_NAMES = frozenset([point[0] for point in SPAN_POINTS] + ["gf2.rank"])
#: Ops whose every span is kept in ``Tracer.spans``.
SPAN_LOG_OPS = 1


def _module(name: str):
    return importlib.import_module(f"cnotsynth.{name}" if name else "cnotsynth")


def _observe(name: str, args: tuple, result, counts: Counter) -> None:
    """Per-call counters that give the layer ratios and sizes."""
    if name == "arch.has_hamiltonian_path":
        counts["arch.ham_found"] += result is not None
    elif name == "synth.eliminate_column":
        counts["synth.eliminate_column_gates"] += len(result)
    elif name == "synth.eliminate_row":
        counts["synth.eliminate_row_gates"] += len(result)
        counts["synth.row_pass_empty"] += not result
    elif name == "steiner.tree":
        counts["steiner.tree_vertices"] += len(result.vertices)
        counts["steiner.steiner_points"] += len(result.vertices - result.terminals - {result.root})
    elif name == "gf2.solve":
        counts["gf2.solve_rows"] += len(args[0])


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.spans: list[list] = []  # [name, start, end, parent id or -1, op id]
        self._stack: list[list] = []  # [span id or -1, seconds of child spans]
        self.counts: Counter = Counter()
        self.op_total: defaultdict[str, float] = defaultdict(float)
        self.op_self: defaultdict[str, float] = defaultdict(float)
        #: Drift-normalized seconds per span name, summed over finished ops.
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_total.clear()
        self.op_self.clear()

    def end_op(self, factor: float) -> None:
        """Add the finished op's span times, scaled by its normalization factor."""
        for name, seconds in self.op_total.items():
            self.total_s[name] += seconds * factor
        for name, seconds in self.op_self.items():
            self.self_s[name] += seconds * factor

    def wrap(self, name: str, fn):
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = None
            if self.op < SPAN_LOG_OPS:
                span = [name, 0.0, 0.0, stack[-1][0] if stack else -1, self.op]
                self.spans.append(span)
            frame = [len(self.spans) - 1 if span else -1, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                counts[name + "_calls"] += 1
                self.op_total[name] += duration
                self.op_self[name] += duration - frame[1]
                if span:
                    span[1], span[2] = start, end
            _observe(name, args, result, counts)
            return result

        return traced

    def install(self) -> None:
        for name, home, attr, callers in SPAN_POINTS:
            wrapper = self.wrap(name, getattr(_module(home), attr))
            for caller in callers:
                module = _module(caller)
                if not hasattr(module, attr):
                    raise AttributeError(f"{module.__name__} has no {attr}; update SPAN_POINTS")
                setattr(module, attr, wrapper)
        matrix = _module("gf2").ParityMatrix
        matrix.rank = self.wrap("gf2.rank", matrix.rank)
