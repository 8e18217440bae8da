"""Outside-in tracing: wrap the names the CLI and its layers look up.

``cordiality.cli``, ``cordiality.harness`` and ``cordiality.makerbreaker``
call their collaborators through module-level names, so replacing those
names with timing wrappers traces every call across a layer boundary
without editing a program file.  ``Tracer.uninstall`` puts the originals
back, so traced and untraced jobs can alternate in one process.

Coarse calls (a solve, a strategy sweep, a family build) become spans:
name, layer, start, end, parent span, and the id of the input graph, which
all spans on one graph share.  The game functions the harness calls run
millions of times per job, so they are tallied instead (calls and seconds),
and their time is charged to the span that was open.  A span's self time
is its duration minus the time of its child spans and tallies.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module, name, layer, kind): kind "span" records each call, "tally" counts
# calls and seconds (only the game layer is tallied)
SPAN, TALLY = "span", "tally"
TARGETS = (
    ("cordiality.cli", "solve", "solver", SPAN),
    ("cordiality.cli", "worst_case_vs_optimal", "harness", SPAN),
    ("cordiality.cli", "worst_case_line", "harness", SPAN),
    ("cordiality.cli", "tree_strategy", "strategies", SPAN),
    ("cordiality.cli", "path_strategy", "strategies", SPAN),
    ("cordiality.cli", "small_path_strategy", "strategies", SPAN),
    ("cordiality.cli", "balance_maximizer_strategy", "strategies", SPAN),
    ("cordiality.cli", "find_branch", "branching", SPAN),
    ("cordiality.cli", "enumerate_trees", "trees", SPAN),
    ("cordiality.cli", "parse_graph6_file", "graph6.parse", SPAN),
    ("cordiality.cli", "emit_graph6", "graph6.emit", SPAN),
    ("cordiality.cli", "maker_breaker_value", "makerbreaker", SPAN),
    ("cordiality.makerbreaker", "winning_family", "makerbreaker", SPAN),
    ("cordiality.harness", "new_game", "game", TALLY),
    ("cordiality.harness", "is_terminal", "game", TALLY),
    ("cordiality.harness", "to_move", "game", TALLY),
    ("cordiality.harness", "legal_moves", "game", TALLY),
    ("cordiality.harness", "apply_move", "game", TALLY),
    ("cordiality.harness", "terminal_value", "game", TALLY),
)


class Tracer:
    """Spans and tallies of one process, kept in memory until written."""

    def __init__(self, graph_type: type):
        self.graph_type = graph_type
        self.spans: list[tuple] = []  # (id, parent, name, layer, graph, start, end, child_s)
        self.tallies: dict[str, list] = {}  # name -> [calls, seconds]
        self.nodes = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [id, child_s]
        self._opened = 0
        self._graph_ids: dict = {}
        self._patched: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.nodes = 0
        self._opened = 0
        for cell in self.tallies.values():
            cell[0] = 0
            cell[1] = 0.0

    def install(self) -> None:
        self.missing = []
        for module_name, name, layer, kind in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, name, None)
            if original is None:
                self.missing.append(f"{module_name}.{name}")
                continue
            wrap = self._span if kind == SPAN else self._tally
            setattr(module, name, wrap(name, layer, original))
            self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched = []

    def run(self, fn, *args):
        """Call ``fn`` as the root span (layer "cli") and return its result."""
        return self._span("main", "cli", fn)(*args)

    def _graph_id(self, args) -> int | None:
        if args and isinstance(args[0], self.graph_type):
            return self._graph_ids.setdefault(args[0], len(self._graph_ids))
        return None

    def _span(self, name, layer, fn):
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            graph = tracer._graph_id(args)
            parent = stack[-1][0] if stack else None
            frame = [tracer._opened, 0.0]
            tracer._opened += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append((frame[0], parent, name, layer, graph, start, end, frame[1]))
            if name == "solve":
                tracer.nodes += result.nodes
            return result

        return wrapper

    def _tally(self, name, layer, fn):
        stack = self._stack
        cell = self.tallies.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            cell[0] += 1
            cell[1] += elapsed
            if stack:
                stack[-1][1] += elapsed
            return result

        return wrapper

    def layer_metrics(self, scale: float) -> dict[str, float]:
        """Per-layer counts and self times of the spans since ``reset``,
        times multiplied by ``scale`` (see ``hostspeed``)."""
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        families = 0
        family_s = 0.0
        for _, _, name, layer, _, start, end, child_s in self.spans:
            self_s[layer] = self_s.get(layer, 0.0) + (end - start - child_s) * scale
            calls[layer] = calls.get(layer, 0) + 1
            if name == "winning_family":
                families += 1
                family_s += (end - start) * scale
        game_s = sum(cell[1] for cell in self.tallies.values()) * scale
        solver_s = self_s.get("solver", 0.0)
        return {
            "solver.calls": calls.get("solver", 0),
            "solver.self_s": solver_s,
            "solver.nodes": self.nodes,
            "solver.nodes_per_s": self.nodes / solver_s if solver_s else 0.0,
            "harness.calls": calls.get("harness", 0),
            "harness.self_s": self_s.get("harness", 0.0),
            "harness.moves": self.tallies.get("apply_move", [0])[0],
            "harness.terminals": self.tallies.get("terminal_value", [0])[0],
            "game.self_s": game_s,
            "strategies.build_s": self_s.get("strategies", 0.0),
            "branching.self_s": self_s.get("branching", 0.0),
            "trees.self_s": self_s.get("trees", 0.0),
            "graph6.parse_s": self_s.get("graph6.parse", 0.0),
            "graph6.emit_s": self_s.get("graph6.emit", 0.0),
            "makerbreaker.self_s": self_s.get("makerbreaker", 0.0),
            "makerbreaker.families": families,
            "makerbreaker.family_s": family_s,
            "cli.self_s": self_s.get("cli", 0.0),
        }

    def span_records(self, job: int) -> list[dict]:
        keys = ("id", "parent", "name", "layer", "graph", "start", "end")
        return [dict(zip(keys, span[:7]), job=job) for span in self.spans]
