"""Command-line front end: solve, tabulate, verify, probe, export.

Subcommands
    solve          exact value of one or more graphs
    table          per-n value table for paths (csv/json/table)
    verify         run a named verification fixture; exit 1 on failure
    probe-balance  sample random connected graphs and report signed values
    mb             maker-breaker value vs. game value, or family export
    trees          list unlabeled trees of a given order as graph6

Exit codes: 0 success / all pass, 1 verification failure, 2 input error,
3 resource refusal (graph above the solver's hard cap without --force, with
more vertices than the interpreter's recursion limit lets the search reach,
or above a Maker-Breaker cap), 141 output closed by its reader (``| head``):
the command stops quietly, with the code of a process killed by SIGPIPE.
``verify`` checks its ``--max-n`` against every selected fixture's range,
and ``table`` and ``probe-balance`` against the solver's cap, before doing
any work.  A graph above ``MAX_VERTICES`` is an input error, refused before
it is built.

Module loading follows the command.  At import this module loads only what
``solve`` runs: ``graphs``, ``game``, ``graph6`` and ``solver``.  Each other
command imports what it uses in its own body: ``verify`` the fixtures of
``cordiality.verify`` (with the strategy harness, the strategies, tree
enumeration and the Maker-Breaker solver), ``mb`` the Maker-Breaker solver,
``table`` the path bound, ``trees`` and the ``trees:``/``prufer:`` specs the
tree module, and ``solve --jobs`` above 1 ``multiprocessing``.  The records
are named tuples and ``Graph`` a slotted class, so no command loads
``dataclasses`` (nor the ``inspect``, ``ast`` and ``dis`` it pulls in);
``csv`` is loaded only for csv output and ``random`` only by
``probe-balance``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from .game import PASS, Move, Objective, VARIANT_CODES
from .graph6 import Graph6Error, emit_graph6, parse_edge_list, parse_graph6_file
from .graphs import (
    MAX_VERTICES,
    Graph,
    GraphError,
    path_graph,
    random_connected_graph,
    spider_graph,
    star_graph,
)
from .solver import (
    DEFAULT_MAX_N,
    GAME_NUMBERS,
    RECURSION_HEADROOM,
    SolverCapError,
    game_number,
    solve,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_REFUSED = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


class InputError(ValueError):
    pass


def make_graph(spec: str) -> list[Graph]:
    """Expand a generator spec: path:N, star:N, spider:a,b,.., trees:N, prufer:a,b,.."""
    kind, _, arg = spec.partition(":")
    try:
        if kind == "path":
            return [path_graph(int(arg))]
        if kind == "star":
            return [star_graph(int(arg))]
        if kind == "spider":
            return [spider_graph([int(x) for x in arg.split(",")])]
        if kind == "trees":
            from .trees import enumerate_trees

            return list(enumerate_trees(int(arg)))
        if kind == "prufer":
            from .trees import prufer_decode

            seq = [int(x) for x in arg.split(",")] if arg else []
            return [prufer_decode(seq, len(seq) + 2)]
    except (ValueError, GraphError) as exc:
        raise InputError(f"bad generator spec {spec!r}: {exc}") from exc
    raise InputError(f"unknown generator {kind!r}; use path/star/spider/trees/prufer")


def load_graphs(args) -> list[Graph]:
    if args.graph:
        return make_graph(args.graph)
    path = args.file
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        if args.edge_list:
            return [parse_edge_list(text)]
        return parse_graph6_file(text)
    except (Graph6Error, GraphError) as exc:
        raise InputError(str(exc)) from exc


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def probability(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:  # also refuses nan
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def emit_records(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for record in records:
            out.write(json.dumps(record, sort_keys=True) + "\n")
        return
    if not records:
        return
    # records of different fixtures carry different keys
    fields = list(dict.fromkeys(key for record in records for key in record))
    if fmt == "csv":
        import csv

        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        for record in records:
            writer.writerow(record)
        return
    widths = {f: max(len(f), *(len(str(r.get(f, ""))) for r in records)) for f in fields}
    out.write("  ".join(f.ljust(widths[f]) for f in fields) + "\n")
    for record in records:
        out.write("  ".join(str(record.get(f, "")).ljust(widths[f]) for f in fields) + "\n")


def line_json(line: list[Move]) -> list:
    """A move line as written: each vertex, and "pass" for a pass."""
    return ["pass" if move is PASS else move for move in line]


def solve_record(g: Graph, variant_code: str, objective_value: str, max_n: int | None) -> dict:
    """The output record of one solve; module-level so a pool worker can run it."""
    result = solve(g, VARIANT_CODES[variant_code], Objective(objective_value), max_n=max_n)
    return {
        "graph": emit_graph6(g),
        "n": g.n,
        "variant": variant_code,
        "objective": objective_value,
        "value": result.value,
        "nodes": result.nodes,
        "principal_line": line_json(result.principal_line),
    }


def map_jobs(func, items: list, jobs: int) -> list:
    """``func`` over ``items`` in order, in this process or in a pool.

    The pool starts one worker per item, up to ``jobs``; with one worker or
    fewer the work stays in this process.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        return [func(item) for item in items]
    from multiprocessing import Pool

    with Pool(processes=workers) as pool:
        return pool.map(func, items)


def cmd_solve(args, out) -> int:
    graphs = load_graphs(args)
    record = partial(solve_record, variant_code=args.variant,
                     objective_value=args.objective, max_n=MAX_VERTICES if args.force else None)
    emit_records(map_jobs(record, graphs, args.jobs), args.format, out)
    return EXIT_OK


def cmd_table(args, out) -> int:
    if args.max_n > DEFAULT_MAX_N:  # refuse before solving any path
        raise SolverCapError(f"table supports --max-n up to {DEFAULT_MAX_N}")
    from .strategies import path_bound

    records = []
    for n in range(args.min_n, args.max_n + 1):
        g = path_graph(n)
        row: dict = {"n": n}
        for name, (variant, objective) in GAME_NUMBERS.items():
            row[name] = solve(g, variant, objective, line=False).value
        row["path_bound"] = path_bound(n)
        row["bound_ok"] = row["cg"] <= path_bound(n)
        parity = g.edge_count % 2
        row["parity_ok"] = all(row[name] % 2 == parity for name in GAME_NUMBERS)
        # cg >= bg: its optimal balance play holds the one player's e1 - e0,
        # and so |e1 - e0|, to at least bg
        row["cg_ge_bg"] = row["cg"] >= row["bg"]
        records.append(row)
    emit_records(records, args.format, out)
    return EXIT_OK


# the fixtures of ``verify``, in run order; ``verify.FIXTURE_RUNS`` holds
# their checks and --max-n ranges, and is imported only when ``verify`` runs
FIXTURES = ("small-paths", "path-bound", "tree-bound", "balance-bound", "mb-equiv")


def cmd_verify(args, out) -> int:
    from . import verify

    names = FIXTURES if args.fixture == "all" else (args.fixture,)
    records = verify.run(names, args.max_n)
    emit_records(records, args.format, out)
    all_ok = all(record["pass"] for record in records)
    summary = "all fixtures passed" if all_ok else "FAILURES above"
    print(summary, file=sys.stderr)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_probe_balance(args, out) -> int:
    if args.max_n > DEFAULT_MAX_N:  # refuse before sampling any graph
        raise SolverCapError(f"probe-balance supports --max-n up to {DEFAULT_MAX_N}")
    import random

    rng = random.Random(args.seed)
    records = []
    for index in range(args.count):
        n = rng.randint(args.min_n, args.max_n)
        g = random_connected_graph(n, args.p, rng)
        value = game_number(g, "bg")
        records.append(
            {
                "index": index,
                "graph": emit_graph6(g),
                "n": n,
                "bg": value,
                "counterexample_candidate": value < 0,
            }
        )
    emit_records(records, args.format, out)
    negatives = [r for r in records if r.get("counterexample_candidate")]
    print(
        f"{len(records)} graphs probed, {len(negatives)} negative signed values",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_mb(args, out) -> int:
    from .makerbreaker import export_hypergraph, maker_breaker_value, winning_family

    graphs = load_graphs(args)
    variant = VARIANT_CODES[args.variant]
    objective = Objective(args.objective)
    records = []
    for g in graphs:
        if args.family_k is not None:
            out.write(export_hypergraph(winning_family(g, args.family_k, objective)))
            continue
        mb = maker_breaker_value(g, variant, objective)
        sv = solve(g, variant, objective, line=False).value
        records.append(
            {
                "graph": emit_graph6(g),
                "variant": args.variant,
                "objective": args.objective,
                "mb_value": mb,
                "game_value": sv,
                "match": mb == sv,
            }
        )
    emit_records(records, args.format, out)
    return EXIT_OK if all(record["match"] for record in records) else EXIT_VERIFY_FAILED


def cmd_trees(args, out) -> int:
    from .trees import enumerate_trees

    for g in enumerate_trees(args.n):
        out.write(emit_graph6(g) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cordiality",
        description="Exact solving and strategy verification for the cordiality and balance games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--graph", help="generator spec, e.g. path:9, star:5, spider:1,2,3, trees:8, prufer:0,1")
        src.add_argument("--file", help="graph6 file, one graph per line")
        p.add_argument("--edge-list", action="store_true",
                       help="treat --file as an edge list ('u v' per line, # comments)")
        p.add_argument("--variant", choices=sorted(VARIANT_CODES), default="A",
                       help="who starts: A = 0-labeling minimizer, I = 1-labeling maximizer, "
                            "I+pass = maximizer starts and may pass once")
        p.add_argument("--objective", choices=["cordiality", "balance"], default="cordiality")
        p.add_argument("--format", choices=["json", "csv", "table"], default="json")

    p_solve = sub.add_parser("solve", help="exact game value of each input graph")
    add_common(p_solve)
    p_solve.add_argument("--jobs", type=positive_int, default=1,
                         help="spread the input graphs across this many processes")
    p_solve.add_argument("--force", dest="force", action="store_true",
                         help=f"lift the vertex-count cap to {MAX_VERTICES} for this run, or to the "
                              f"interpreter's recursion limit less {RECURSION_HEADROOM} if that is "
                              "lower; the search has no node or time budget, so a large graph may "
                              "not finish")
    p_solve.set_defaults(func=cmd_solve)

    p_table = sub.add_parser("table", help="value table for paths")
    p_table.add_argument("--min-n", type=positive_int, default=3)
    p_table.add_argument("--max-n", type=positive_int, default=12)
    p_table.add_argument("--format", choices=["json", "csv", "table"], default="csv")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run a named verification fixture")
    p_verify.add_argument("fixture", choices=FIXTURES + ("all",))
    p_verify.add_argument("--max-n", type=positive_int, default=None)
    p_verify.add_argument("--format", choices=["json", "csv", "table"], default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_probe = sub.add_parser("probe-balance", help="sample random connected graphs, report signed values")
    p_probe.add_argument("--count", type=positive_int, default=20)
    p_probe.add_argument("--min-n", type=positive_int, default=4)
    p_probe.add_argument("--max-n", type=positive_int, default=9)
    p_probe.add_argument("--p", type=probability, default=0.4, help="edge probability, in (0, 1]")
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.add_argument("--format", choices=["json", "csv", "table"], default="json")
    p_probe.set_defaults(func=cmd_probe_balance)

    p_mb = sub.add_parser("mb", help="maker-breaker value vs. game value, or family export")
    add_common(p_mb)
    p_mb.add_argument("--family-k", type=int, default=None,
                      help="export the winning family at this threshold instead of solving")
    p_mb.set_defaults(func=cmd_mb)

    p_trees = sub.add_parser("trees", help="unlabeled trees of order N as graph6 lines")
    p_trees.add_argument("n", type=int)
    p_trees.set_defaults(func=cmd_trees)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "min_n", None) is not None and args.min_n > args.max_n:
        parser.error(f"--min-n {args.min_n} is above --max-n {args.max_n}")
    try:
        return args.func(args, out)
    except SolverCapError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAP_REFUSED
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry() -> None:  # console-script hook
    try:
        code = main()
        sys.stdout.flush()  # so a closed reader shows here, not at exit
    except BrokenPipeError:
        # point stdout at the null device, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    # under ``python -m cordiality.cli`` this module is ``__main__``; register
    # it under its own name too, so that ``verify``'s ``from . import cli``
    # binds this module instead of running the file a second time
    sys.modules.setdefault("cordiality.cli", sys.modules[__name__])
    entry()
