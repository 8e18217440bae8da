import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from cordiality import (
    cli,
    emit_graph6,
    enumerate_trees,
    path_graph,
    prufer_decode,
    star_graph,
    verify,
)
from cordiality.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def test_solve_generator_spec():
    code, text = run_cli(["solve", "--graph", "path:6", "--variant", "A", "--objective", "cordiality"])
    assert code == 0
    (record,) = jsonl(text)
    assert record["value"] == 1
    assert record["variant"] == "A"
    assert len(record["principal_line"]) == 6


def test_solve_balance_trivial():
    code, text = run_cli(["solve", "--graph", "path:2", "--variant", "A", "--objective", "balance"])
    assert code == 0
    assert jsonl(text)[0]["value"] == 1


def test_solve_graph6_file_batch(tmp_path):
    lines = [emit_graph6(t) for t in enumerate_trees(6)]
    path = tmp_path / "trees.g6"
    path.write_text("\n".join(lines) + "\n")
    code, text = run_cli(["solve", "--file", str(path), "--variant", "I"])
    assert code == 0
    records = jsonl(text)
    assert len(records) == len(lines)
    assert [r["graph"] for r in records] == lines


def test_solve_edge_list_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# small path\n0 1\n1 2\n")
    code, text = run_cli(["solve", "--file", str(path), "--edge-list"])
    assert code == 0
    assert jsonl(text)[0]["value"] == 0


def test_solve_jobs_matches_sequential(tmp_path):
    lines = [emit_graph6(path_graph(n)) for n in (4, 5, 6, 7)]
    path = tmp_path / "paths.g6"
    path.write_text("\n".join(lines) + "\n")
    _, sequential = run_cli(["solve", "--file", str(path)])
    _, parallel = run_cli(["solve", "--file", str(path), "--jobs", "2"])
    assert sequential == parallel


def test_solve_jobs_below_one_is_refused(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", "--graph", "path:4", "--jobs", jobs])
        assert exc.value.code == 2


def test_solve_jobs_caps_workers_at_graph_count(tmp_path, monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return [func(item) for item in items]

    path = tmp_path / "paths.g6"
    path.write_text(emit_graph6(path_graph(4)) + "\n" + emit_graph6(path_graph(5)) + "\n")
    _, sequential = run_cli(["solve", "--file", str(path)])
    monkeypatch.setattr("multiprocessing.Pool", RecordingPool)
    _, pooled = run_cli(["solve", "--file", str(path), "--jobs", "8"])
    assert started == [2]
    assert pooled == sequential


REMOVED_FLAGS = {
    "parallel": ["solve", "--graph", "path:4", "--parallel"],
    "mb-jobs": ["mb", "--graph", "path:4", "--jobs", "2"],
    # the solver picks path reversal from the graph; there is no flag for it
    "symmetry": ["solve", "--graph", "path:8", "--symmetry", "path-reversal"],
    # alpha-beta is always on; there is no flag to turn it off
    "no-alpha-beta": ["solve", "--graph", "path:4", "--no-alpha-beta"],
    # a final position wins for Maker only when its zero set is a family member
    "semantics": ["mb", "--graph", "path:4", "--semantics", "exact"],
}


@pytest.mark.parametrize("case", sorted(REMOVED_FLAGS))
def test_removed_flags_are_input_errors(case):
    with pytest.raises(SystemExit) as exc:
        run_cli(REMOVED_FLAGS[case])
    assert exc.value.code == 2


def test_bad_generator_spec_is_input_error():
    for spec in ("dodecahedron:5", "prufer:9,9", "trees:x"):
        code, _ = run_cli(["solve", "--graph", spec])
        assert code == 2, spec


def test_tree_specs_expand_in_process():
    assert cli.make_graph("prufer:0,0,0") == [star_graph(5)]
    assert cli.make_graph("prufer:1,2") == [prufer_decode([1, 2], 4)]
    assert cli.make_graph("prufer:") == [path_graph(2)]
    assert cli.make_graph("trees:6") == list(enumerate_trees(6))


def test_unreadable_file_is_input_error(tmp_path, capsys):
    for path in (tmp_path / "missing.g6", tmp_path):
        code, text = run_cli(["solve", "--file", str(path)])
        assert (code, text) == (2, ""), path
        assert f"cannot read {path}" in capsys.readouterr().err, path


def test_malformed_graph6_file_is_input_error(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("B\x07\n")
    code, _ = run_cli(["solve", "--file", str(path)])
    assert code == 2


def test_cap_refusal_and_force(monkeypatch):
    import cordiality.solver

    monkeypatch.setattr(cordiality.solver, "DEFAULT_MAX_N", 5)
    code, _ = run_cli(["solve", "--graph", "path:6"])
    assert code == 3
    code, text = run_cli(["solve", "--graph", "path:6", "--force"])
    assert code == 0
    assert jsonl(text)[0]["value"] == 1


def test_table_small_values_and_schema():
    code, text = run_cli(["table", "--min-n", "3", "--max-n", "6", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "n,cg,cg_i,cg_ip,bg,path_bound,bound_ok,parity_ok,cg_ge_bg"
    rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert sorted(rows) == [3, 4, 5, 6]
    assert rows[3][1:5] == ["0", "0", "0", "0"]
    assert rows[4][1:5] == ["1", "1", "1", "1"]
    assert rows[6][1:5] == ["1", "1", "1", "1"]
    assert all(row[6:9] == ["True", "True", "True"] for row in rows.values())


def test_verify_fixtures_pass():
    code, text = run_cli(["verify", "small-paths"])
    assert code == 0
    assert all(record["pass"] for record in jsonl(text))
    code, _ = run_cli(["verify", "balance-bound", "--max-n", "6"])
    assert code == 0
    code, _ = run_cli(["verify", "mb-equiv", "--max-n", "5"])
    assert code == 0
    code, _ = run_cli(["verify", "tree-bound", "--max-n", "6"])
    assert code == 0
    code, _ = run_cli(["verify", "path-bound", "--max-n", "8"])
    assert code == 0


def test_cli_and_verify_list_the_same_fixtures_in_run_order():
    # cli names the fixtures for --help without importing the fixture module
    assert cli.FIXTURES == tuple(verify.FIXTURE_RUNS)


def test_verify_small_paths_honours_max_n():
    code, text = run_cli(["verify", "small-paths", "--max-n", "4"])
    assert code == 0
    records = jsonl(text)
    assert len(records) == 12  # per path, a solved value and a script for each of 3 variants
    assert {r["graph"] for r in records} == {emit_graph6(path_graph(n)) for n in (3, 4)}


def test_verify_failure_exits_one_with_witness(monkeypatch):
    # force an unattainable claimed bound so the fixture must fail
    monkeypatch.setattr(verify, "path_bound", lambda n: -1)
    sweeps = []

    class CountedSweep(verify.Sweep):
        def __init__(self, g, *args):
            sweeps.append(emit_graph6(g))
            super().__init__(g, *args)

    monkeypatch.setattr(verify, "Sweep", CountedSweep)
    code, text = run_cli(["verify", "path-bound", "--max-n", "6"])
    assert code == 1
    records = jsonl(text)
    assert any(not record["pass"] for record in records)
    witnesses = {r["graph"]: r["witness_line"] for r in records if "witness_line" in r}
    # the worst case and the witness line come from one sweep per record
    assert sweeps == [r["graph"] for r in records if "witness_line" in r]
    assert witnesses == {
        emit_graph6(path_graph(3)): [1, 0, 2],
        emit_graph6(path_graph(4)): [0, 1, 3, 2],
        emit_graph6(path_graph(5)): [0, 1, 3, 4, 2],
        emit_graph6(path_graph(6)): [0, 1, 4, 2, 3, 5],
    }


def test_verify_failed_terminal_check_exits_one_with_witness(monkeypatch):
    # the pair (0, 0) is never cut, so every terminal fails the suffix check
    monkeypatch.setattr(verify, "suffix_pair_edge", lambda n: (0, 0))
    code, text = run_cli(["verify", "balance-bound", "--max-n", "4"])
    assert code == 1
    records = jsonl(text)
    assert [r["graph"] for r in records] == [emit_graph6(path_graph(n)) for n in (2, 3, 4)]
    for n, record in zip((2, 3, 4), records):
        assert not record["pass"]
        assert record["worst_case"] == -n  # -|E| - 1 on the n-path
        assert sorted(record["witness_line"]) == list(range(n))


@pytest.mark.parametrize("fixture, name", [("small-paths", "solve"),
                                           ("mb-equiv", "maker_breaker_value")])
def test_verify_failing_value_record_alone_exits_one(monkeypatch, fixture, name):
    # one value off by two on P4 under variant I; every sweep still passes;
    # the fixtures solve through cli.solve
    module = cli if name == "solve" else verify
    original = getattr(module, name)

    def off_on_p4(g, variant, objective, **kwargs):
        got = original(g, variant, objective, **kwargs)
        if (emit_graph6(g), variant.code) != (emit_graph6(path_graph(4)), "I"):
            return got
        return got._replace(value=got.value + 2) if name == "solve" else got + 2

    monkeypatch.setattr(module, name, off_on_p4)
    code, text = run_cli(["verify", fixture, "--max-n", "5"])
    assert code == 1
    records = jsonl(text)
    failed = [r for r in records if not r["pass"]]
    assert len(failed) == 1 and failed[0]["graph"] == emit_graph6(path_graph(4))
    assert "worst_case" not in failed[0]
    assert any("worst_case" in r for r in records) == (fixture == "small-paths")


def test_verify_output_is_pinned():
    # A golden digest of ``verify all --max-n 8`` (170 records).  A change
    # that alters this output on purpose updates the digest and says why in
    # CHANGES.md.
    out = io.StringIO()
    assert main(["verify", "all", "--max-n", "8"], out=out) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "677a71c22d17fe2cdedfa0442c90c3378e992d90a280e5524e46533c494f6d41"


def test_verify_all_sweep_work_is_pinned(monkeypatch):
    # The memo entries summed over every sweep of ``verify all --max-n 10``:
    # deterministic and machine-independent, so a change to the sweep that
    # merges or splits positions shows here.
    entries = []

    class CountedSweep(verify.Sweep):
        def __init__(self, *args):
            super().__init__(*args)
            entries.append(self.entries)

    monkeypatch.setattr(verify, "Sweep", CountedSweep)
    assert main(["verify", "all", "--max-n", "10"], out=io.StringIO()) == 0
    assert len(entries) == 229
    assert sum(entries) == 20899


def test_probe_balance_deterministic_and_nonnegative():
    args = ["probe-balance", "--count", "8", "--max-n", "7", "--seed", "11"]
    code1, first = run_cli(args)
    code2, second = run_cli(args)
    assert code1 == code2 == 0
    assert first == second
    records = jsonl(first)
    assert len(records) == 8
    assert all(record["bg"] >= 0 for record in records)
    assert not any(record["counterexample_candidate"] for record in records)


def test_mb_command_matches_and_exports():
    code, text = run_cli(["mb", "--graph", "path:6"])
    assert code == 0
    record = jsonl(text)[0]
    assert record["mb_value"] == record["game_value"] == 1
    assert record["match"] is True
    code, text = run_cli(["mb", "--graph", "path:3", "--family-k", "0"])
    assert code == 0
    assert text.splitlines()[0] == "3 4"


def test_mb_mismatch_exits_one(monkeypatch):
    import cordiality.makerbreaker as makerbreaker

    true_value = makerbreaker.maker_breaker_value
    monkeypatch.setattr(makerbreaker, "maker_breaker_value", lambda *args: true_value(*args) + 2)
    code, text = run_cli(["mb", "--graph", "path:6"])
    assert code == 1
    (record,) = jsonl(text)
    assert record["mb_value"] == 3 and record["game_value"] == 1
    assert record["match"] is False


def test_trees_listing():
    code, text = run_cli(["trees", "7"])
    assert code == 0
    assert len(text.strip().splitlines()) == 11


def test_table_format_table():
    code, text = run_cli(["table", "--min-n", "3", "--max-n", "4", "--format", "table"])
    assert code == 0
    assert text.splitlines()[0].startswith("n")


def test_verify_csv_and_table_carry_every_fixtures_columns():
    code, text = run_cli(["verify", "all", "--format", "csv", "--max-n", "4"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert {"strategy", "worst_case", "claimed_bound", "mb_value"} <= set(rows[0])
    _, as_json = run_cli(["verify", "all", "--max-n", "4"])
    assert len(rows) == len(jsonl(as_json))
    code, text = run_cli(["verify", "path-bound", "--format", "table", "--max-n", "4"])
    assert code == 0
    assert "worst_case" in text.splitlines()[0].split()


def test_maker_breaker_caps_are_refusals(monkeypatch, capsys):
    for args in (["mb", "--graph", "path:15"], ["mb", "--graph", "path:21", "--family-k", "3"]):
        code, _ = run_cli(args)
        assert code == 3
        assert "refused" in capsys.readouterr().err
    # the solver's own cap, met while the fixture runs; a lower cap keeps
    # the run short (the command's up-front check still reads 14)
    import cordiality.makerbreaker

    monkeypatch.setattr(cordiality.makerbreaker, "MB_MAX_N", 4)
    code, _ = run_cli(["verify", "mb-equiv", "--max-n", "5"])
    assert code == 3
    assert "refused" in capsys.readouterr().err


def test_verify_refuses_max_n_past_a_fixture_cap_before_any_work(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "solve", no_work)
    for name in ("maker_breaker_value", "Sweep"):
        monkeypatch.setattr(verify, name, no_work)
    # tree enumeration ends at order 12 (an input error); the Maker-Breaker
    # solver at 14 and the game solver at 22 (refusals); under "all" the
    # first fixture past its cap in run order decides the exit code
    for argv, expected in ((["verify", "tree-bound", "--max-n", "13"], 2),
                           (["verify", "all", "--max-n", "13"], 2),
                           (["verify", "mb-equiv", "--max-n", "15"], 3),
                           (["verify", "path-bound", "--max-n", "23"], 3)):
        code, text = run_cli(argv)
        assert (code, text) == (expected, ""), argv
        assert "supports --max-n up to" in capsys.readouterr().err, argv


def test_verify_refuses_max_n_below_a_fixtures_smallest_instance_before_any_work(
        monkeypatch, capsys):
    # a --max-n below every instance of a fixture would check nothing and
    # still report "all fixtures passed"; it is an input error instead
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "solve", no_work)
    for name in ("maker_breaker_value", "Sweep", "trees_by_order"):
        monkeypatch.setattr(verify, name, no_work)
    for fixture, least in (("small-paths", 3), ("path-bound", 3), ("tree-bound", 2),
                           ("balance-bound", 2), ("mb-equiv", 2), ("all", 3)):
        argv = ["verify", fixture, "--max-n", str(least - 1)]
        code, text = run_cli(argv)
        assert (code, text) == (2, ""), argv
        err = capsys.readouterr().err
        assert "needs --max-n of at least" in err and "all fixtures passed" not in err, argv


def test_verify_at_each_fixtures_least_max_n_checks_something():
    for fixture in verify.FIXTURE_RUNS:
        least = verify.FIXTURE_RUNS[fixture][2]
        code, text = run_cli(["verify", fixture, "--max-n", str(least)])
        assert code == 0 and jsonl(text), fixture


def test_force_refuses_graph_past_table_entry_range(tmp_path, monkeypatch):
    import cordiality.solver

    def no_search(*args, **kwargs):
        raise AssertionError("search started")

    monkeypatch.setattr(cordiality.solver, "_Searcher", no_search)
    path = tmp_path / "k33.txt"
    path.write_text("".join(f"{u} {v}\n" for u in range(33) for v in range(u + 1, 33)))
    code, text = run_cli(["solve", "--force", "--edge-list", "--file", str(path)])
    assert code == 3
    assert text == ""


def test_force_refuses_graph_deeper_than_the_recursion_limit(tmp_path, monkeypatch, capsys):
    import cordiality.solver

    def no_search(*args, **kwargs):
        raise AssertionError("search started")

    monkeypatch.setattr(cordiality.solver, "_Searcher", no_search)
    path = tmp_path / "sparse.txt"
    path.write_text("0 1\n998 999\n")  # 1000 vertices and two edges
    code, text = run_cli(["solve", "--force", "--edge-list", "--file", str(path)])
    assert (code, text) == (3, "")
    assert "1000 vertices" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["trees", "10"], ["solve", "--graph", "trees:6"]])
def test_output_closed_by_its_reader_exits_quietly(argv):
    # the reader is gone before the command starts, as when ``| head`` has
    # read all it wants: the command stops with 141, as SIGPIPE would stop it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "cordiality.cli", *argv], env=env,
                                stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, b"")


def test_counts_and_orders_below_one_are_refused():
    for argv in (["probe-balance", "--count", "-3"],
                 ["probe-balance", "--count", "0"],
                 ["probe-balance", "--min-n", "0"],
                 ["probe-balance", "--max-n", "0"],
                 ["table", "--min-n", "0"],
                 ["table", "--max-n", "-1"],
                 ["verify", "path-bound", "--max-n", "0"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2, argv


def test_probe_balance_takes_a_p_in_the_unit_interval():
    for p in ("1", "0.25"):
        code, text = run_cli(["probe-balance", "--p", p, "--count", "3", "--max-n", "6"])
        assert code == 0, p
        assert len(jsonl(text)) == 3, p


def test_probe_balance_p_outside_unit_interval_is_refused(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a graph was sampled")

    monkeypatch.setattr(cli, "random_connected_graph", no_sampling)
    for p in ("0", "-0.5", "1.5", "nan", "inf", "-inf"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["probe-balance", "--p", p])
        assert exc.value.code == 2, p


def test_probe_balance_refuses_max_n_past_the_solver_cap_before_sampling(monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a graph was sampled")

    monkeypatch.setattr(cli, "random_connected_graph", no_sampling)
    code, text = run_cli(["probe-balance", "--max-n", "23"])
    assert (code, text) == (3, "")
    assert "supports --max-n up to 22" in capsys.readouterr().err


def test_table_refuses_max_n_past_the_solver_cap_before_any_work(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "path_graph", no_work)
    monkeypatch.setattr(cli, "solve", no_work)
    code, text = run_cli(["table", "--max-n", "23"])
    assert (code, text) == (3, "")
    assert "supports --max-n up to 22" in capsys.readouterr().err


def test_graphs_above_the_vertex_limit_are_input_errors(tmp_path, capsys):
    # each is refused before its neighbour masks are built, so at once
    path = tmp_path / "far.txt"
    path.write_text("0 1000000000\n")
    g6 = tmp_path / "far.g6"
    g6.write_text("~A[P\n")  # the vertex count 10001 alone
    for argv in (["solve", "--graph", "path:1000000000"],
                 ["solve", "--graph", "star:1000000000"],
                 ["solve", "--graph", "spider:1000000000"],
                 ["solve", "--edge-list", "--file", str(path)],
                 ["solve", "--file", str(g6)],
                 ["solve", "--graph", "path:10001", "--force"]):
        start = time.perf_counter()
        code, text = run_cli(argv)
        assert (code, text) == (2, ""), argv
        assert time.perf_counter() - start < 1, argv
        assert "above the limit of 10000" in capsys.readouterr().err, argv
    # at the limit the graph is built, and the solver's cap refuses it
    code, text = run_cli(["solve", "--graph", "path:10000"])
    assert (code, text) == (3, "")


def test_inverted_order_ranges_are_refused(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "random_connected_graph", no_work)
    monkeypatch.setattr(cli, "solve", no_work)
    for argv in (["table", "--min-n", "10", "--max-n", "5"],
                 ["probe-balance", "--min-n", "9", "--max-n", "4"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert f"--min-n {argv[2]} is above --max-n {argv[4]}" in err, err
    # an equal pair is a one-order range
    monkeypatch.undo()
    code, text = run_cli(["table", "--min-n", "5", "--max-n", "5"])
    assert code == 0
    assert len(text.strip().splitlines()) == 2
