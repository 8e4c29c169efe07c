import argparse
import json
import re

import pytest

from pebblekit import cli
from pebblekit.cli import (_VERIFY_CLAIMS, EXIT_USAGE, FAMILIES, build_parser,
                           graph_from_spec, main)
from pebblekit.graphs import (Graph, Original, cartesian_product, middle_cycle,
                              path)
from pebblekit.registry import CLAIMS


def run(argv):
    return main(argv)


@pytest.fixture
def mc4(tmp_path):
    p = tmp_path / "mc4.json"
    assert run(["construct", "middle-cycle", "--n", "2", "--out", str(p)]) == 0
    return p


def dist_file(tmp_path, counts, name="d.json"):
    p = tmp_path / name
    p.write_text(json.dumps({"counts": counts}))
    return p


# -- construct ---------------------------------------------------------------

def test_construct_middle_cycle(mc4):
    g = Graph.from_json(mc4.read_text())
    assert g.n == 8 and g.m == 12


def test_construct_product(tmp_path, capsys):
    out = tmp_path / "prod.json"
    assert run(["construct", "product", "--left", "m-cycle:2",
                "--right", "m-cycle:2", "--out", str(out)]) == 0
    assert Graph.from_json(out.read_text()).n == 64


def test_construct_bad_param():
    assert run(["construct", "path", "--n", "0"]) == 3


def test_construct_unknown_family():
    assert run(["construct", "moebius", "--n", "3"]) == 3


def test_construct_and_specs_share_the_family_names(tmp_path):
    for name in FAMILIES:
        out = tmp_path / f"{name}.json"
        assert run(["construct", name, "--n", "3", "--out", str(out)]) == 0
        assert Graph.from_json(out.read_text()) == graph_from_spec(f"{name}:3")
    assert graph_from_spec("middle-cycle:2") == graph_from_spec("m-cycle:2")


def test_construct_dot(tmp_path):
    out = tmp_path / "g.json"
    dot = tmp_path / "g.dot"
    assert run(["construct", "path", "--n", "2",
                "--out", str(out), "--dot", str(dot)]) == 0
    assert '"v1" -- "v2"' in dot.read_text()


def test_construct_delete(tmp_path):
    mp = tmp_path / "mp.json"
    assert run(["construct", "middle-path", "--n", "4", "--out", str(mp)]) == 0
    out = tmp_path / "trimmed.json"
    assert run(["construct", "delete", "--graph", str(mp),
                "--delete", "v1,v4", "--out", str(out)]) == 0
    assert Graph.from_json(out.read_text()).n == 5


# -- solve -------------------------------------------------------------------

def test_solve_solvable_with_witness(mc4, tmp_path):
    d = dist_file(tmp_path, {"v2": 10})
    w = tmp_path / "w.json"
    assert run(["solve", "--graph", str(mc4), "--dist", str(d),
                "--target", "u(0,1)", "--witness-out", str(w)]) == 0
    # the emitted witness must replay
    assert run(["solve", "--graph", str(mc4), "--dist", str(d),
                "--target", "u(0,1)", "--replay", str(w)]) == 0


def test_solve_cor24_witness_unsolvable(tmp_path):
    g = tmp_path / "g.json"
    assert run(["construct", "m-path-trimmed", "--n", "4", "--out", str(g)]) == 0
    d = dist_file(tmp_path, {"v2": 1, "v3": 1, "u(3,4)": 3})
    assert run(["solve", "--graph", str(g), "--dist", str(d),
                "--target", "u(1,2)"]) == 1


def test_solve_a_huge_pile_sends_only_the_toll(tmp_path, capsys):
    # the rich-vertex shortcut pushed halves of all 10^30 pebbles, which
    # raised OverflowError: a traceback and exit 1
    g = tmp_path / "p3.json"
    g.write_text(path(3).to_json())
    d = dist_file(tmp_path, {"v1": 10 ** 30})
    assert run(["solve", "--graph", str(g), "--dist", str(d), "--target", "v3"]) == 0
    assert capsys.readouterr().out.startswith("solvable: 3 moves")


def test_solve_empty_distribution(mc4, tmp_path):
    d = dist_file(tmp_path, {})
    assert run(["solve", "--graph", str(mc4), "--dist", str(d),
                "--target", "v0"]) == 1


def test_solve_parse_error(mc4, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve", "--graph", str(mc4), "--dist", str(bad),
                "--target", "v0"]) == 3


def test_solve_missing_file(mc4):
    assert run(["solve", "--graph", str(mc4), "--dist", "/nonexistent",
                "--target", "v0"]) == 3


# -- pebbling-number ---------------------------------------------------------

def test_pebbling_number_mc4(mc4, capsys):
    assert run(["pebbling-number", "--graph", str(mc4)]) == 0
    out = capsys.readouterr().out
    assert "f_1 = 10" in out
    assert "DP on 2 of 8 targets" in out  # one original, one edge vertex
    assert "max |U_k| = 155" in out


def test_pebbling_number_budget_inconclusive(tmp_path, capsys):
    g = tmp_path / "mc6.json"
    assert run(["construct", "middle-cycle", "--n", "3", "--out", str(g)]) == 0
    assert run(["pebbling-number", "--graph", str(g),
                "--budget-nodes", "100000"]) == 2
    assert "inconclusive" in capsys.readouterr().out


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_a_zero_time_budget_is_inconclusive(tmp_path, capsys, monkeypatch, via_env):
    # 0 seconds is a cap spent at once, not "no limit"
    g = tmp_path / "tmp5.json"
    assert run(["construct", "m-path-trimmed", "--n", "5", "--out", str(g)]) == 0
    capsys.readouterr()
    monkeypatch.delenv("PEBBLEKIT_NODE_BUDGET", raising=False)
    if via_env:
        monkeypatch.setenv("PEBBLEKIT_TIME_BUDGET", "0")
        flags = []
    else:
        monkeypatch.delenv("PEBBLEKIT_TIME_BUDGET", raising=False)
        flags = ["--budget-seconds", "0"]
    assert run(["pebbling-number", "--graph", str(g), *flags]) == 2
    assert "inconclusive: time budget exhausted" in capsys.readouterr().out


def test_pebbling_number_witness_is_unsolvable(tmp_path, capsys):
    g = tmp_path / "p4.json"
    w = tmp_path / "w.json"
    assert run(["construct", "path", "--n", "4", "--out", str(g)]) == 0
    assert run(["pebbling-number", "--graph", str(g), "--witness-out", str(w)]) == 0
    witness = json.loads(w.read_text())
    d = tmp_path / "d.json"
    d.write_text(json.dumps(witness["distribution"]))
    capsys.readouterr()
    assert run(["solve", "--graph", str(g), "--dist", str(d),
                "--target", witness["target"]]) == 1
    assert capsys.readouterr().out.startswith("unsolvable")


def test_solve_reads_the_witness_file_of_pebbling_number(tmp_path, capsys):
    g = tmp_path / "p4.json"
    w = tmp_path / "w.json"
    assert run(["construct", "path", "--n", "4", "--out", str(g)]) == 0
    assert run(["pebbling-number", "--graph", str(g), "--witness-out", str(w)]) == 0
    capsys.readouterr()
    target = json.loads(w.read_text())["target"]
    assert run(["solve", "--graph", str(g), "--dist", str(w), "--target", target]) == 1
    assert capsys.readouterr().out.startswith("unsolvable")


@pytest.mark.parametrize("flags, env, named", [
    (["--budget-nodes", "-5"], {}, "--budget-nodes"),
    (["--budget-seconds", "-1"], {}, "--budget-seconds"),
    (["--budget-seconds", "nan"], {}, "--budget-seconds"),
    ([], {"PEBBLEKIT_NODE_BUDGET": "abc"}, "PEBBLEKIT_NODE_BUDGET"),
    ([], {"PEBBLEKIT_NODE_BUDGET": "-1"}, "PEBBLEKIT_NODE_BUDGET"),
    ([], {"PEBBLEKIT_TIME_BUDGET": "soon"}, "PEBBLEKIT_TIME_BUDGET"),
    ([], {"PEBBLEKIT_TIME_BUDGET": "-1"}, "PEBBLEKIT_TIME_BUDGET"),
], ids=["negative-nodes", "negative-seconds", "nan-seconds", "unparsable-node-env",
        "negative-node-env", "unparsable-time-env", "negative-time-env"])
def test_a_bad_budget_is_a_usage_error(tmp_path, capsys, monkeypatch, flags, env, named):
    # each of these once passed for a verdict: exit 1 with a traceback, or
    # exit 2 with the budget "exhausted"
    g = tmp_path / "p4.json"
    assert run(["construct", "path", "--n", "4", "--out", str(g)]) == 0
    capsys.readouterr()
    monkeypatch.delenv("PEBBLEKIT_NODE_BUDGET", raising=False)
    monkeypatch.delenv("PEBBLEKIT_TIME_BUDGET", raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert run(["pebbling-number", "--graph", str(g), *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert named in captured.err


@pytest.mark.parametrize("flags, env, node_cap, timed", [
    (["--budget-seconds", "5"], {}, 5_000_000, True),
    (["--budget-seconds", "5"], {"PEBBLEKIT_NODE_BUDGET": "7"}, 7, True),
    (["--budget-nodes", "9"], {"PEBBLEKIT_TIME_BUDGET": "5"}, 9, True),
    (["--budget-nodes", "9"], {"PEBBLEKIT_NODE_BUDGET": "abc"}, 9, False),
    ([], {"PEBBLEKIT_NODE_BUDGET": ""}, 5_000_000, False),
    ([], {"PEBBLEKIT_NODE_BUDGET": "", "PEBBLEKIT_TIME_BUDGET": ""}, 5_000_000, False),
], ids=["seconds-keep-default-nodes", "seconds-keep-env-nodes", "nodes-keep-env-seconds",
        "nodes-flag-over-bad-env", "empty-node-env", "both-env-empty"])
def test_each_budget_cap_is_resolved_on_its_own(monkeypatch, flags, env, node_cap, timed):
    # a flag sets its own cap only: the other comes from its environment
    # variable, else its default, and an empty variable counts as unset
    monkeypatch.delenv("PEBBLEKIT_NODE_BUDGET", raising=False)
    monkeypatch.delenv("PEBBLEKIT_TIME_BUDGET", raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    args = build_parser().parse_args(["pebbling-number", "--graph", "g.json", *flags])
    budget = cli._budget(args)
    assert budget.node_cap == node_cap
    assert (budget.deadline is not None) == timed


def test_inconclusive_reports_the_nodes_and_seconds_spent(tmp_path, capsys):
    g = tmp_path / "p4.json"
    assert run(["construct", "path", "--n", "4", "--out", str(g)]) == 0
    capsys.readouterr()
    assert run(["pebbling-number", "--graph", str(g), "--budget-nodes", "3"]) == 2
    m = re.fullmatch(r"inconclusive: node budget of 3 exhausted "
                     r"\((\d+) nodes explored, \d+\.\d\d s\)\n", capsys.readouterr().out)
    assert m and int(m[1]) > 3  # the DP charges a parent's candidates at once


# every input read as an integer, then every one read as seconds
INTEGER_INPUTS = [
    pytest.param(["construct", "path", "--n", "{x}"], {}, "--n", id="construct-n"),
    pytest.param(["construct", "product", "--left", "path:{x}", "--right", "path:2"], {},
                 "path:{x}", id="family-spec"),
    pytest.param(["verify", "cor24", "--n", "{x}"], {}, "--n", id="verify-value"),
    pytest.param(["verify", "cor24", "--n", "3..{x}"], {}, "--n", id="verify-range-bound"),
    pytest.param(["pebbling-number", "--graph", "{g}", "--t", "{x}"], {}, "--t", id="t"),
    pytest.param(["verify", "cor27", "--n", "2", "--t", "{x}"], {}, "--t", id="verify-t"),
    pytest.param(["pebbling-number", "--graph", "{g}", "--budget-nodes", "{x}"], {},
                 "--budget-nodes", id="budget-nodes"),
    pytest.param(["pebbling-number", "--graph", "{g}"], {"PEBBLEKIT_NODE_BUDGET": "{x}"},
                 "PEBBLEKIT_NODE_BUDGET", id="node-env"),
]
SECONDS_INPUTS = [
    pytest.param(["pebbling-number", "--graph", "{g}", "--budget-seconds", "{x}"], {},
                 "--budget-seconds", id="budget-seconds"),
    pytest.param(["pebbling-number", "--graph", "{g}"], {"PEBBLEKIT_TIME_BUDGET": "{x}"},
                 "PEBBLEKIT_TIME_BUDGET", id="time-env"),
]


# int() and float() take each of these; every reader of a number rejects them
@pytest.mark.parametrize("text", ["1_0", " 3", "+3", "\u0663"],
                         ids=["underscore", "space", "plus", "arabic-indic"])
@pytest.mark.parametrize("argv, env, named", INTEGER_INPUTS + SECONDS_INPUTS)
def test_every_number_input_rejects_the_same_strings(tmp_path, capsys, monkeypatch,
                                                     argv, env, named, text):
    g = tmp_path / "p3.json"
    assert run(["construct", "path", "--n", "3", "--out", str(g)]) == 0
    capsys.readouterr()
    # a small cap, so that a reading that wrongly succeeds ends quickly
    monkeypatch.setenv("PEBBLEKIT_NODE_BUDGET", "1000")
    monkeypatch.delenv("PEBBLEKIT_TIME_BUDGET", raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value.format(x=text))
    assert run([arg.format(g=g, x=text) for arg in argv]) == EXIT_USAGE
    assert named.format(x=text) in capsys.readouterr().err


# int() raises ValueError on more digits than sys.get_int_max_str_digits()
# (4,300 by default): a usage error too, not a traceback
@pytest.mark.parametrize("argv, env, named", INTEGER_INPUTS)
def test_an_integer_too_long_for_int_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                      argv, env, named):
    test_every_number_input_rejects_the_same_strings(tmp_path, capsys, monkeypatch,
                                                     argv, env, named, "1" * 5000)


QUERY_P3 = ["--graph", "{g}", "--dist", "{d}", "--target", "v3"]


@pytest.mark.parametrize("argv", [
    ["solve", *QUERY_P3, "--replay", "{w}", "--t", "0"],
    ["solve", *QUERY_P3, "--t", "-1"],
    ["explain", "--strategy", "greedy", *QUERY_P3, "--t", "0"],
    ["explain", "--strategy", "greedy", *QUERY_P3, "--t", "-2"],
    ["explain", "--strategy", "greedy", *QUERY_P3, "--t", "two"],
    ["pebbling-number", "--graph", "{g}", "--t", "0"],
    ["verify", "cor27", "--n", "2", "--t", "0"],
    ["verify", "cor27", "--n", "2", "--t", "0..1"],
], ids=["replay-t0", "solve-t-1", "greedy-t0", "greedy-t-2", "greedy-t-text",
        "pebbling-number-t0", "verify-t0", "verify-t-range-from-0"])
def test_t_below_one_is_a_usage_error(tmp_path, capsys, argv):
    # a replay or a greedy run once passed t = 0 as a verdict, exit 0
    g = tmp_path / "p3.json"
    assert run(["construct", "path", "--n", "3", "--out", str(g)]) == 0
    w = tmp_path / "w.json"
    w.write_text("[]")
    d = dist_file(tmp_path, {"v1": 4})
    capsys.readouterr()
    assert run([arg.format(g=g, d=d, w=w) for arg in argv]) == EXIT_USAGE
    assert "--t: needs an integer >= 1" in capsys.readouterr().err


def test_out_of_memory_is_inconclusive(tmp_path, capsys, monkeypatch):
    g = tmp_path / "p4.json"
    assert run(["construct", "path", "--n", "4", "--out", str(g)]) == 0
    capsys.readouterr()

    def out_of_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "compute_pebbling", out_of_memory)
    assert run(["pebbling-number", "--graph", str(g)]) == 2
    assert capsys.readouterr().out == "inconclusive: out of memory\n"


def test_explain_huge_pile_is_inconclusive(mc4, tmp_path, capsys):
    # half of 10**30 pebbles pushed one step is a list of moves longer than
    # an index can hold: an OverflowError, once a traceback and exit 1. Exit
    # 2 stands while the constructive strategies build one list entry per
    # move; once they stop, a 7-move answer exists and this test changes.
    d = dist_file(tmp_path, {"v2": 10**30})
    capsys.readouterr()
    assert run(["explain", "--strategy", "middle-cycle", "--graph", str(mc4),
                "--dist", str(d), "--target", "v0"]) == 2
    assert capsys.readouterr().out == "inconclusive: out of memory\n"


def test_solve_replay_short_of_t(tmp_path, capsys):
    g = tmp_path / "p2.json"
    assert run(["construct", "path", "--n", "2", "--out", str(g)]) == 0
    d = dist_file(tmp_path, {"v1": 2})
    w = tmp_path / "w.json"
    w.write_text(json.dumps([["v1", "v2"]]))
    capsys.readouterr()
    assert run(["solve", "--graph", str(g), "--dist", str(d), "--target", "v2",
                "--t", "2", "--replay", str(w)]) == 1
    assert "replay legal but leaves only 1" in capsys.readouterr().out


@pytest.mark.parametrize("counts, target", [
    ({"v1": 2}, "v9"),              # was "replay legal but leaves only 0", exit 1
    ({"v1": 2, "v9": 5}, "v2"),     # was "verified", exit 0
], ids=["unknown-target", "pebbles-off-the-graph"])
@pytest.mark.parametrize("replay", [False, True], ids=["search", "replay"])
def test_solve_replay_checks_what_solve_checks(tmp_path, capsys, counts, target, replay):
    g = tmp_path / "p2.json"
    g.write_text(path(2).to_json())
    w = tmp_path / "w.json"
    w.write_text(json.dumps([["v1", "v2"]]))
    argv = ["solve", "--graph", str(g), "--dist", str(dist_file(tmp_path, counts)),
            "--target", target] + (["--replay", str(w)] if replay else [])
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "no vertex labelled v9" in captured.err


def test_pebbling_number_restricted_targets(tmp_path, capsys):
    g = tmp_path / "p4.json"
    assert run(["construct", "path", "--n", "4", "--out", str(g)]) == 0
    assert run(["pebbling-number", "--graph", str(g), "--targets", "v4"]) == 0
    assert "f_1 = 8" in capsys.readouterr().out


# -- explain -----------------------------------------------------------------

def test_explain_middle_cycle(mc4, tmp_path, capsys):
    d = dist_file(tmp_path, {"v2": 10})
    assert run(["explain", "--strategy", "middle-cycle", "--graph", str(mc4),
                "--dist", str(d), "--target", "u(0,1)"]) == 0
    out = capsys.readouterr().out
    assert "case:" in out and "->" in out


def test_explain_middle_path(tmp_path, capsys):
    g = tmp_path / "tmp5.json"
    assert run(["construct", "m-path-trimmed", "--n", "5", "--out", str(g)]) == 0
    d = dist_file(tmp_path, {"u(4,5)": 8, "v2": 1, "v3": 1, "v4": 1})
    w = tmp_path / "w.json"
    capsys.readouterr()
    assert run(["explain", "--strategy", "middle-path", "--graph", str(g),
                "--dist", str(d), "--target", "u(1,2)", "--witness-out", str(w)]) == 0
    out = capsys.readouterr().out
    assert "case: u-target:spine" in out and "in 7 moves" in out
    report = json.loads(w.read_text())
    assert set(report) == {"succeeded", "delivered", "case_tag", "moves"}
    assert report["case_tag"] == "u-target:spine" and len(report["moves"]) == 7
    # a path is not a trimmed middle path
    p4 = tmp_path / "p4.json"
    assert run(["construct", "path", "--n", "4", "--out", str(p4)]) == 0
    assert run(["explain", "--strategy", "middle-path", "--graph", str(p4),
                "--dist", str(d), "--target", "u(1,2)"]) == 3


def test_explain_greedy(tmp_path, capsys):
    g = tmp_path / "p4.json"
    assert run(["construct", "path", "--n", "4", "--out", str(g)]) == 0
    d = dist_file(tmp_path, {"v1": 4})
    capsys.readouterr()
    assert run(["explain", "--strategy", "greedy", "--graph", str(g),
                "--dist", str(d), "--target", "v3"]) == 0
    assert "case: greedy\n" in capsys.readouterr().out


def test_explain_greedy_sends_only_the_toll(mc4, tmp_path, capsys):
    # v2 holds the toll 2^3 to v0 many times over, and sends just the toll
    d = dist_file(tmp_path, {"v2": 10**30})
    capsys.readouterr()
    assert run(["explain", "--strategy", "greedy", "--graph", str(mc4),
                "--dist", str(d), "--target", "v0"]) == 0
    assert "delivered 1 pebble(s) to v0 in 7 moves:" in capsys.readouterr().out


def test_a_rich_route_pile_stays_where_it_is(tmp_path, capsys):
    # v1 pays the toll to v3 alone and sends just that over v2; pushing on
    # half of v2's 10**30 pebbles as well once ended in an OverflowError
    g = tmp_path / "p3.json"
    assert run(["construct", "path", "--n", "3", "--out", str(g)]) == 0
    d = dist_file(tmp_path, {"v1": 4, "v2": 10**30})
    for cmd in (["solve"], ["explain", "--strategy", "greedy"]):
        capsys.readouterr()
        assert run([*cmd, "--graph", str(g), "--dist", str(d), "--target", "v3"]) == 0
        assert " 3 moves" in capsys.readouterr().out, cmd


def test_explain_collect_threshold(tmp_path, capsys):
    g = tmp_path / "p4.json"
    assert run(["construct", "path", "--n", "4", "--out", str(g)]) == 0
    d = dist_file(tmp_path, {"v1": 8})
    assert run(["explain", "--strategy", "collect", "--graph", str(g),
                "--dist", str(d), "--target", "v4"]) == 0
    assert "delivered 1" in capsys.readouterr().out


def test_explain_structural_error(tmp_path, mc4):
    g = tmp_path / "p4.json"
    assert run(["construct", "path", "--n", "4", "--out", str(g)]) == 0
    d = dist_file(tmp_path, {"v1": 8})
    assert run(["explain", "--strategy", "middle-cycle", "--graph", str(g),
                "--dist", str(d), "--target", "v4"]) == 3
    # collect needs a path on v_i labels; M(C4) has edge vertices
    d = dist_file(tmp_path, {"v2": 8}, "d2.json")
    assert run(["explain", "--strategy", "collect", "--graph", str(mc4),
                "--dist", str(d), "--target", "v0"]) == 3


@pytest.mark.parametrize("strategy, spec, target, t, message", [
    ("middle-path", "m-path-trimmed:4", "u(2,3)", "2", "this strategy delivers a single pebble"),
    ("collect", "path:4", "v9", "1", "no vertex labelled v9"),
    ("middle-cycle", "cycle:8", "v1", "1", "graph is not the middle graph of an even cycle"),
    ("middle-cycle", "path:4", "v1", "1", "graph is not the middle graph of an even cycle"),
    ("middle-path", "path:1", "v1", "1", "graph is not a trimmed middle path"),
], ids=["middle-path-t2", "collect-unknown-target", "middle-cycle-on-c8",
        "middle-cycle-on-p4", "middle-path-on-p1"])
def test_explain_rejects_what_its_strategy_does_not_take(tmp_path, capsys, strategy, spec,
                                                          target, t, message):
    g = tmp_path / "g.json"
    g.write_text(graph_from_spec(spec).to_json())
    d = dist_file(tmp_path, {"v1": 8})
    assert run(["explain", "--strategy", strategy, "--graph", str(g), "--dist", str(d),
                "--target", target, "--t", t]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_explain_hypothesis_not_met(mc4, tmp_path, capsys):
    d = dist_file(tmp_path, {"v2": 3})
    assert run(["explain", "--strategy", "middle-cycle", "--graph", str(mc4),
                "--dist", str(d), "--target", "u(0,1)"]) == 1
    assert "hypothesis" in capsys.readouterr().out


def test_explain_product_rejects_graph_that_is_not_the_product(tmp_path):
    # the labels of M(C4) x M(C4) without the edges inside the (v0|.) row,
    # and the product with its vertices listed in reverse
    gp = cartesian_product(middle_cycle(2), middle_cycle(2))
    in_row = {i for i, lab in enumerate(gp.vertices) if lab.left == Original(0)}
    last = gp.n - 1
    d = dist_file(tmp_path, {"(v0|v3)": 100})
    g = tmp_path / "g.json"
    for wrong in (Graph(gp.vertices, [(a, b) for a, b in gp.edges
                                      if not (a in in_row and b in in_row)]),
                  Graph(gp.vertices[::-1], [(last - a, last - b) for a, b in gp.edges])):
        g.write_text(wrong.to_json())
        assert run(["explain", "--strategy", "product", "--graph", str(g),
                    "--dist", str(d), "--target", "(v0|v1)"]) == 3


def test_explain_unknown_strategy(mc4, tmp_path):
    d = dist_file(tmp_path, {"v2": 10})
    assert run(["explain", "--strategy", "nope", "--graph", str(mc4),
                "--dist", str(d), "--target", "v0"]) == 3


# -- verify ------------------------------------------------------------------

def test_verify_ineq22_range(capsys):
    assert run(["verify", "ineq22", "--m", "5..30"]) == 0
    out = capsys.readouterr().out
    assert out.count("confirmed") == 26


def test_verify_ineq22_refuted_point():
    assert run(["verify", "ineq22", "--m", "4"]) == 1


def test_verify_cor24_range(capsys):
    assert run(["verify", "cor24", "--n", "3..5"]) == 0
    assert capsys.readouterr().out.count("confirmed") == 3


def test_verify_lemma26_at_n3_with_the_default_budget(tmp_path, monkeypatch):
    monkeypatch.delenv("PEBBLEKIT_NODE_BUDGET", raising=False)
    monkeypatch.delenv("PEBBLEKIT_TIME_BUDGET", raising=False)
    ledger = tmp_path / "ledger.jsonl"
    assert run(["verify", "lemma26", "--n", "3", "--ledger", str(ledger)]) == 0
    (rec,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert rec["status"] == "confirmed"
    assert rec["evidence"]["oracle"] == 20
    assert rec["evidence"]["dp_targets"] == ["v0", "u(0,1)"]


@pytest.mark.parametrize("argv, line", [
    (["cor27", "--n", "2", "--t", "1"],
     'cor27_bound {"n": 2, "t": 1}: confirmed (oracle 10 <= bound 10)'),
    (["cor31", "--n", "2", "--t", "2"],
     'cor31_bound {"n": 2, "t": 2}: confirmed (oracle 13 <= bound 16)'),
], ids=["cor27", "cor31"])
def test_verify_confirms_an_upper_bound_claim(capsys, argv, line):
    assert run(["verify", *argv]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_verify_graham(capsys):
    assert run(["verify", "graham", "--left", "path:2", "--right", "path:3"]) == 0
    assert "holds" in capsys.readouterr().out


def test_verify_graham_with_a_middle_graph_factor(capsys, monkeypatch):
    # f(M(C4) x P2) = 18 <= 10 * 2, exactly and within the default budget
    monkeypatch.delenv("PEBBLEKIT_NODE_BUDGET", raising=False)
    monkeypatch.delenv("PEBBLEKIT_TIME_BUDGET", raising=False)
    assert run(["verify", "graham", "--left", "m-cycle:2", "--right", "path:2"]) == 0
    assert "holds (f_left=10, f_right=2, f_product=18)" in capsys.readouterr().out


def test_verify_graham_with_a_trimmed_middle_path_factor(capsys):
    # f(TMP(4) x P2) = 10 <= 6 * 2
    assert run(["verify", "graham", "--left", "m-path-trimmed:4", "--right", "path:2"]) == 0
    assert "holds (f_left=6, f_right=2, f_product=10)" in capsys.readouterr().out


def test_verify_graham_says_how_far_it_got(capsys):
    assert run(["verify", "graham", "--left", "path:3", "--right", "path:4",
                "--budget-nodes", "10"]) == 2
    assert re.fullmatch(
        r"graham: inconclusive \(f_left=None, f_right=None, f_product=None\): oracle "
        r"budget exhausted \(node budget of 10 exhausted; \d+ nodes explored, "
        r"\d+\.\d\d s\)\n", capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    ["lemma26", "--n", "2", "--budget-nodes", "10"],
    ["graham", "--left", "path:3", "--right", "path:3", "--budget-nodes", "10"],
], ids=["claim", "graham"])
def test_verify_is_inconclusive_when_its_budget_runs_out(argv, capsys):
    assert run(["verify", *argv]) == 2
    assert "inconclusive" in capsys.readouterr().out


@pytest.mark.parametrize("spec, message", [
    ("path", "family spec needs a parameter, e.g. path:4"),
    ("moebius:3", "unknown family 'moebius'"),
])
def test_a_family_spec_names_what_is_wrong(spec, message, capsys):
    assert run(["construct", "product", "--left", spec, "--right", "path:2"]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_verify_unknown_claim():
    assert run(["verify", "whatever", "--n", "3"]) == 3


def test_verify_missing_range():
    assert run(["verify", "cor24"]) == 3


@pytest.mark.parametrize("argv", [["cor24", "--n", "5..3"],
                                  ["ineq22", "--m", "4..3"]])
def test_verify_empty_range_is_a_usage_error(argv, capsys):
    assert run(["verify", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["cor24", "--n", "2"], "cor24 is not defined at {'n': 2}"),
    (["cor24", "--n", "2..3"], "cor24 is not defined at {'n': 2}"),
    (["lemma26", "--n", "1"], "middle_even_cycle is not defined at {'n': 1}"),
    (["product-bound", "--n", "1", "--m", "2"],
     "product_bound is not defined at {'n': 1, 'm': 2}"),
], ids=["cor24-n2", "cor24-range-from-2", "lemma26-n1", "product-bound-n1"])
def test_verify_point_outside_the_domain_is_a_usage_error(argv, message, capsys):
    # exit 2 means a budget or memory ran out; a point outside the domain
    # is a bad parameter, and no point of its range is checked
    assert run(["verify", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


GOOD_GRAPH = path(2).to_json()
GOOD_DIST = json.dumps({"counts": {"v1": 2}})
SOLVE = ["solve", "--graph", "{g}", "--dist", "{d}", "--target", "v2"]
# JSON nested past the recursion limit, and a label nesting 2,000 pairs
TOO_DEEP = "[" * 100_000 + "]" * 100_000
DEEP_LABEL = "(" * 2000 + "v1" + "|v1)" * 2000


@pytest.mark.parametrize("files, bad, argv", [
    ({"g": '{"vertices": ["v1", "v2"]}', "d": GOOD_DIST}, "g", SOLVE),
    ({"g": '{"vertices": ["v1", "v2"], "edges": [[0]]}', "d": GOOD_DIST},
     "g", SOLVE),
    ({"g": GOOD_GRAPH, "d": "{}"}, "d", SOLVE),
    ({"g": GOOD_GRAPH, "d": '{"counts": {"v1": "x"}}'}, "d", SOLVE),
    ({"g": GOOD_GRAPH, "d": '{"counts": {"v1": 1.7}}'}, "d", SOLVE),
    ({"g": GOOD_GRAPH, "d": '{"counts": {"v1": true}}'}, "d", SOLVE),
    ({"g": GOOD_GRAPH, "d": "{bad"}, "d", SOLVE),
    ({"g": GOOD_GRAPH, "d": GOOD_DIST, "w": '[["v1"]]'}, "w",
     SOLVE + ["--replay", "{w}"]),
    ({"g": '{"vertices": [], "edges": []}'}, "g", ["pebbling-number", "--graph", "{g}"]),
    ({"g": TOO_DEEP, "d": GOOD_DIST}, "g", SOLVE),
    ({"g": GOOD_GRAPH, "d": json.dumps({"counts": {DEEP_LABEL: 2}})}, "d", SOLVE),
    ({"g": '{"vertices": ["v0", "v1", "v2"], "edges": [[0, true], [true, 2]]}'}, "g",
     ["pebbling-number", "--graph", "{g}"]),
    ({"g": GOOD_GRAPH, "d": GOOD_DIST}, None, SOLVE[:-1] + [DEEP_LABEL]),
    ({}, None, ["verify", "cor24", "--n", "abc"]),
    ({}, None, ["verify", "graham", "--left", "path:x", "--right", "path:2"]),
    ({"g": GOOD_GRAPH, "d": '{"counts": {"v1": 3, "v01": 5}}'}, "d", SOLVE),
    ({"g": GOOD_GRAPH, "d": '{"counts": {"u(1,2)": 1, "u(2,1)": 1}}'}, "d", SOLVE),
    ({"g": '{"vertices": {"v1": 0, "v2": 0}, "edges": [[0, 1]]}', "d": GOOD_DIST},
     "g", SOLVE),
    ({"g": GOOD_GRAPH, "d": GOOD_DIST, "w": '[{"v1": 0, "v2": 0}]'}, "w",
     SOLVE + ["--replay", "{w}"]),
    ({"g": GOOD_GRAPH, "d": GOOD_DIST, "w": "{}"}, "w", SOLVE + ["--replay", "{w}"]),
    ({"g": GOOD_GRAPH, "d": GOOD_DIST, "w": "[[1, 2]]"}, "w", SOLVE + ["--replay", "{w}"]),
    ({"g": GOOD_GRAPH}, None, ["pebbling-number", "--graph", "{g}", "--targets", ""]),
], ids=["graph-without-edges", "one-element-edge", "dist-without-counts",
        "non-integer-count", "fractional-count", "boolean-count", "not-json",
        "one-element-move", "empty-graph", "too-deep-graph", "too-deep-label",
        "boolean-endpoints", "too-deep-target", "non-integer-range",
        "non-integer-family-parameter", "one-vertex-spelled-twice",
        "one-edge-vertex-spelled-twice", "vertices-as-a-dict", "move-as-a-dict",
        "moves-as-a-dict", "non-string-move-labels", "empty-targets"])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, files, bad, argv):
    paths = {}
    for key, text in files.items():
        paths[key] = str(tmp_path / f"{key}.json")
        (tmp_path / f"{key}.json").write_text(text)
    assert run([arg.format(**paths) for arg in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    if bad is not None:
        assert paths[bad] in captured.err


# each of these named a flag its command does not read, and exited 0
@pytest.mark.parametrize("argv", [
    ["verify", "cor24", "--n", "3", "--m", "abc"],
    ["verify", "cor24", "--n", "3", "--left", "path:2"],
    ["verify", "graham", "--left", "path:2", "--right", "path:2", "--n", "3"],
    ["verify", "graham", "--left", "path:2", "--right", "path:2",
     "--ledger", "L.jsonl"],
    ["verify", "kn", "--n", "2", "--csv", "s.csv"],
    ["construct", "path", "--n", "2", "--left", "junk", "--graph", "nofile",
     "--out", "g.json"],
    ["construct", "product", "--left", "path:2", "--right", "path:2",
     "--n", "0", "--out", "g.json"],
    SOLVE + ["--replay", "w.json", "--witness-out", "w2.json"],
], ids=["verify-other-range", "verify-factor", "graham-range", "graham-ledger",
        "csv-without-ledger", "family-with-product-and-delete-flags",
        "product-with-n", "replay-and-witness-out"])
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, monkeypatch,
                                                           argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(GOOD_GRAPH)
    (tmp_path / "d.json").write_text(GOOD_DIST)
    (tmp_path / "w.json").write_text('[["v1", "v2"]]')
    before = {p: p.read_text() for p in tmp_path.iterdir()}
    assert run([arg.format(g="g.json", d="d.json") for arg in argv]) == EXIT_USAGE
    assert {p: p.read_text() for p in tmp_path.iterdir()} == before


def _subcommands(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _flags(parser, required=False):
    return {opt for a in parser._actions if a.required or not required
            for opt in a.option_strings} - {"-h", "--help"}


def test_construct_and_verify_subcommands_come_from_the_tables():
    commands = _subcommands(build_parser())
    construct = _subcommands(commands["construct"])
    assert set(construct) == {*FAMILIES, "product", "delete"}
    for name, required in [*((f, {"--n"}) for f in FAMILIES),
                           ("product", {"--left", "--right"}),
                           ("delete", {"--graph", "--delete"})]:
        assert _flags(construct[name], required=True) == required
        assert _flags(construct[name]) == required | {"--out", "--dot"}
    verify = _subcommands(commands["verify"])
    assert set(verify) == {*_VERIFY_CLAIMS, "graham"}
    budget = {"--budget-nodes", "--budget-seconds"}
    for cli_name, name in _VERIFY_CLAIMS.items():
        params = {f"--{p}" for p in CLAIMS[name].params}
        assert _flags(verify[cli_name], required=True) == params
        assert _flags(verify[cli_name]) == params | budget | {"--ledger", "--csv"}
    assert _flags(verify["graham"], required=True) == {"--left", "--right"}
    assert _flags(verify["graham"]) == {"--left", "--right"} | budget


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_no_flag_is_read_by_int_or_float():
    # outside text becomes a number only in errors.read_int and read_seconds,
    # which reject what int() and float() take beyond ASCII digits
    for parser in _parsers(build_parser()):
        for action in parser._actions:
            assert action.type not in (int, float), (parser.prog, action.option_strings)


def _in_old_layout(data):
    """The saved level as once written: one width, ``bits``, for every field."""
    (entry,) = data["levels"].values()
    del entry["widths"]
    entry["bits"] = 3


@pytest.mark.parametrize("edit", [
    lambda data: next(iter(data["levels"].values())).update(k=8),
    lambda data: data.update(levels=5),
    _in_old_layout,
], ids=["level-size-edited", "levels-not-a-map", "old-layout"])
def test_a_checkpoint_not_as_saved_is_a_usage_error(tmp_path, capsys, edit):
    g, cp = tmp_path / "p3.json", tmp_path / "cp.json"
    assert run(["construct", "path", "--n", "3", "--out", str(g)]) == 0
    argv = ["pebbling-number", "--graph", str(g), "--targets", "v3",
            "--checkpoint", str(cp)]
    assert run(argv) == 0
    data = json.loads(cp.read_text())
    edit(data)
    cp.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and str(cp) in captured.err


@pytest.mark.parametrize("raw", [b"{bad", b"\xff\xfe", TOO_DEEP.encode()],
                         ids=["not-json", "not-utf8", "too-deep"])
def test_a_checkpoint_that_is_not_json_is_a_usage_error(tmp_path, capsys, raw):
    g, cp = tmp_path / "p3.json", tmp_path / "cp.json"
    assert run(["construct", "path", "--n", "3", "--out", str(g)]) == 0
    cp.write_bytes(raw)
    capsys.readouterr()
    assert run(["pebbling-number", "--graph", str(g), "--checkpoint", str(cp)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and str(cp) in captured.err


def test_checkpoint_only_on_pebbling_number(tmp_path, mc4):
    # solve and verify have nothing to resume, so they reject the flag
    cp = str(tmp_path / "cp.json")
    assert run(["verify", "cor24", "--n", "3", "--checkpoint", cp]) == EXIT_USAGE
    d = dist_file(tmp_path, {"v2": 10})
    assert run(["solve", "--graph", str(mc4), "--dist", str(d),
                "--target", "v0", "--checkpoint", cp]) == EXIT_USAGE


def test_verify_writes_ledger(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    csv_out = tmp_path / "summary.csv"
    assert run(["verify", "kn", "--n", "2..4",
                "--ledger", str(ledger), "--csv", str(csv_out)]) == 0
    assert len(ledger.read_text().splitlines()) == 3
    assert "complete_graph" in csv_out.read_text()


@pytest.mark.parametrize("bad", [b"{}", b"{bad", b"\xff\xfe", TOO_DEEP.encode()],
                         ids=["not-a-record", "not-json", "not-utf8", "too-deep"])
def test_verify_csv_names_the_malformed_ledger_line(tmp_path, capsys, bad):
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_bytes(bad + b"\n")
    csv_out = tmp_path / "summary.csv"
    assert run(["verify", "kn", "--n", "2", "--ledger", str(ledger),
                "--csv", str(csv_out)]) == EXIT_USAGE
    assert f"{ledger} line 1" in capsys.readouterr().err
    assert not csv_out.exists()


# -- usage -------------------------------------------------------------------

def test_no_command_is_usage_error():
    assert run([]) == 3


def test_unknown_flag_is_usage_error():
    assert run(["solve", "--bogus"]) == 3
