"""The CLI workloads: their inputs, their command lines and their checks.

Each workload is one ``cordiality`` command run in-process through
``cordiality.cli.main(argv, out=buffer)``.  Sizes are chosen so that one job
takes about two seconds on a 2 GHz Xeon core, which lets a 50-second run
repeat it some twenty times and report a median.

This module imports nothing from ``cordiality``: the random corpus and its
graph6 text are built here, so the inputs do not change when the program
does, and the program's graph6 output can be checked against them.
"""

from __future__ import annotations

import json
import os
import random

DEFAULT_SEED = 1
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

VERIFY_MAX_N = 10
# random-batch corpus: CORPUS_PER_N graphs for each order, G(n, p) retried
# until connected.  A fixed count per order keeps the job's cost close to
# the same for every seed (the largest order dominates the time).  With five
# orders, a job's median and 90th-percentile solve fall inside one order's
# cluster (n = 9 and n = 11) rather than on the edge between two.
CORPUS_ORDERS = (7, 8, 9, 10, 11)
CORPUS_PER_N = 32
CORPUS_P = 0.4

WORKLOADS = ("verify-all", "random-batch")


def random_corpus(seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Seeded connected G(n, p) graphs as (n, edges), in a fixed order."""
    rng = random.Random(seed)
    corpus = []
    for n in CORPUS_ORDERS:
        for _ in range(CORPUS_PER_N):
            while True:
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < CORPUS_P]
                if _connected(n, edges):
                    break
            corpus.append((n, edges))
    return corpus


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in range(n):
            if frontier >> v & 1:
                reach |= adj[v]
        frontier = reach & ~seen
        seen |= reach
    return seen == (1 << n) - 1


def graph6_line(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 text for n <= 62: upper triangle, column-major, 6 bits a byte."""
    present = set(edges)
    bits = [1 if (row, col) in present else 0 for col in range(1, n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    chunks = [int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return "".join(chr(c + 63) for c in [n] + chunks)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="ascii") as handle:
        return json.load(handle)


class Inputs:
    """What one workload needs before its first job: argv and check data."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.corpus_path = None
        self.corpus: list[tuple[int, list[tuple[int, int]]]] = []
        self.corpus_lines: list[str] = []
        if workload == "verify-all":
            self.argv = ["verify", "all", "--max-n", str(VERIFY_MAX_N)]
        elif workload == "random-batch":
            self.corpus = random_corpus(seed)
            self.corpus_lines = [graph6_line(n, edges) for n, edges in self.corpus]
            self.corpus_path = os.path.join(work_dir, f"corpus-{seed}-{os.getpid()}.g6")
            with open(self.corpus_path, "w", encoding="ascii") as handle:
                handle.write("\n".join(self.corpus_lines) + "\n")
            self.argv = ["solve", "--file", self.corpus_path, "--objective", "balance"]
        else:
            raise ValueError(f"unknown workload {workload!r}")

    def cleanup(self) -> None:
        if self.corpus_path and os.path.exists(self.corpus_path):
            os.remove(self.corpus_path)


def check_output(inputs: Inputs, text: str, expected: dict, reference_values=None) -> list[str]:
    """Errors in one job's JSON-lines output; an empty list means correct.

    ``reference_values`` holds the random-batch values from an independent
    solver when the seed is not the default one.
    """
    try:
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    name = inputs.workload
    if name == "verify-all":
        want = expected["verify-all"]["records"]
        got = {}
        for r in records:
            got[r.get("fixture")] = got.get(r.get("fixture"), 0) + 1
        if got != want:
            return [f"records per fixture {got}, expected {want}"]
        return [f"failing record {r}" for r in records if r.get("pass") is not True]
    if name == "random-batch":
        if inputs.seed == expected["random-batch"]["seed"]:
            if inputs.corpus_lines != expected["random-batch"]["graph6"]:
                return ["corpus for the default seed differs from expected.json"]
            values = expected["random-batch"]["values"]
        else:
            values = reference_values
        got_graphs = [r.get("graph") for r in records]
        if got_graphs != inputs.corpus_lines:
            return ["solve records do not echo the corpus graphs in order"]
        return [
            f"graph {r['graph']}: value {r.get('value')}, expected {want}"
            for r, want in zip(records, values)
            if r.get("value") != want
        ]
    raise ValueError(f"unknown workload {name!r}")
