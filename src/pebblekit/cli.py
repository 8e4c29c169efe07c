"""Batch command-line front end.

Exit codes are a stable scripting contract: 0 = solvable/confirmed/holds,
1 = unsolvable/refuted/violated or a strategy's hypothesis not met,
2 = inconclusive (a budget ran out, or memory did), 3 = usage error: a bad
flag, name, parameter or budget, or an input file that is missing, not
JSON, or not of the expected shape. Commands return 0 or 1 for their own
verdicts and raise for the rest; ``main`` is the one place that maps
errors to exit codes.

``construct`` has a subcommand per family in ``FAMILIES`` and ``verify`` one
per claim in ``_VERIFY_CLAIMS``, each taking only the flags it reads, which
go after the name: ``verify cor24 --n 3..5``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Callable

from . import graphs, registry, strategies
from .engine import (Budget, Distribution, MoveSequence, compute_pebbling,
                     is_solvable, replay, SweepCheckpoint)
from .errors import (INT, BudgetExceeded, InvalidParameter, PebbleError, PreconditionNotMet,
                     UnknownVertex, read_int, read_json)
from .graphs import Graph, Original, parse_label

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


def _budget(args) -> Budget:
    """Each cap from its flag, else from its environment variable, else its
    default."""
    return Budget.from_env(args.budget_nodes, args.budget_seconds)


def _positive(text: str) -> int:
    """The argparse type of every single-valued --t: an integer >= 1."""
    t = read_int(text, "--t") if re.fullmatch(INT, text) else 0
    if t < 1:
        raise argparse.ArgumentTypeError(f"needs an integer >= 1, got {text!r}")
    return t


# ---------------------------------------------------------------------------
# Graph families, by the names both `construct FAMILY --n N` and the
# `FAMILY:N` specs of --left/--right accept


def _middle_path(n: int) -> Graph:
    return graphs.middle_graph(graphs.path(n))


FAMILIES: dict[str, Callable[[int], Graph]] = {
    "path": graphs.path,
    "cycle": graphs.cycle,
    "complete": graphs.complete,
    "m-path": _middle_path,
    "middle-path": _middle_path,
    "m-path-trimmed": graphs.trimmed_middle_path,
    "m-cycle": graphs.middle_cycle,
    "middle-cycle": graphs.middle_cycle,
}


def graph_from_spec(spec: str) -> Graph:
    """A family spec name:param, e.g. m-cycle:2 or m-path-trimmed:4."""
    name, _, num = spec.partition(":")
    if not num:
        raise PebbleError(f"family spec needs a parameter, e.g. {name}:4")
    if name not in FAMILIES:
        raise PebbleError(f"unknown family {name!r} "
                          f"(known: {', '.join(sorted(FAMILIES))})")
    return FAMILIES[name](read_int(num, f"family spec {spec!r}"))


def _distribution(data) -> Distribution:
    """A distribution file, or a witness file of ``pebbling-number
    --witness-out``, which holds one under ``distribution``."""
    if isinstance(data, dict) and "distribution" in data:
        data = data["distribution"]
    return Distribution.from_json_dict(data)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_construct(args) -> int:
    if args.family == "product":
        g = graphs.cartesian_product(graph_from_spec(args.left),
                                     graph_from_spec(args.right))
    elif args.family == "delete":
        labels = [parse_label(s) for s in args.delete.split(",")]
        g = read_json(args.graph, Graph.from_json_dict, "input file")
        g = graphs.delete_vertices(g, labels)
    else:
        g = FAMILIES[args.family](read_int(args.n, "--n"))
    text = g.to_json(indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(g.to_dot() + "\n")
    print(f"# {g.n} vertices, {g.m} edges", file=sys.stderr)
    return EXIT_OK


def cmd_solve(args) -> int:
    g = read_json(args.graph, Graph.from_json_dict, "input file")
    target = parse_label(args.target)
    d = read_json(args.dist, _distribution, "input file")
    # an unknown target, or pebbles off the graph, is a usage error with or
    # without --replay
    g.index_of(target)
    d.vector(g)
    if args.replay:
        seq = read_json(args.replay, MoveSequence.from_json_list, "input file")
        final = replay(g, d, seq)  # raises on an illegal move
        if final.get(target) >= args.t:
            print(f"verified: {len(seq)} moves leave "
                  f"{final.get(target)} pebble(s) on {target}")
            return EXIT_OK
        print(f"replay legal but leaves only {final.get(target)} "
              f"pebble(s) on {target}, needed {args.t}")
        return EXIT_NEGATIVE
    outcome = is_solvable(g, d, target, args.t, _budget(args))
    if outcome.solvable:
        print(f"solvable: {len(outcome.witness)} moves "
              f"({outcome.nodes_explored} nodes explored)")
        if args.witness_out:
            with open(args.witness_out, "w") as fh:
                json.dump(outcome.witness.to_json_list(), fh)
        return EXIT_OK
    print(f"unsolvable ({outcome.nodes_explored} nodes explored)")
    return EXIT_NEGATIVE


def cmd_pebbling_number(args) -> int:
    g = read_json(args.graph, Graph.from_json_dict, "input file")
    targets = None if args.targets is None else [*map(parse_label, args.targets.split(","))]
    checkpoint = SweepCheckpoint(args.checkpoint) if args.checkpoint else None
    report = compute_pebbling(g, targets=targets, t=args.t,
                              budget=_budget(args), checkpoint=checkpoint)
    scope = "restricted to given targets" if targets else "over all targets"
    print(f"f_{args.t} = {report.value} ({scope}, "
          f"{report.distributions_checked} distributions checked, "
          f"max |U_k| = {report.max_level}, "
          f"DP on {len(report.dp_targets)} of {len(report.per_target)} targets)")
    if report.witness:
        d, tgt = report.witness
        print(f"witness: size-{d.total} distribution unsolvable for {tgt}")
        if args.witness_out:
            with open(args.witness_out, "w") as fh:
                json.dump({"target": str(tgt),
                           "distribution": d.to_json_dict()}, fh, indent=2)
    return EXIT_OK


_STRATEGY_ALIASES = {
    "collect": "collect", "cor2.3": "collect",
    "middle-path": "middle-path", "cor2.4": "middle-path",
    "middle-cycle": "middle-cycle", "cor2.7": "middle-cycle",
    "product": "product", "thm2.8": "product",
    "greedy": "greedy",
}


def cmd_explain(args) -> int:
    name = _STRATEGY_ALIASES[args.strategy]
    g = read_json(args.graph, Graph.from_json_dict, "input file")
    d = read_json(args.dist, _distribution, "input file")
    target = parse_label(args.target)
    t = args.t
    if t != 1 and name in ("middle-path", "product"):
        raise PebbleError("this strategy delivers a single pebble")
    if name == "collect":
        # the graph itself must be a path on v_i labels; the context is the
        # whole path, in the order of the labels
        if not all(isinstance(lab, Original) for lab in g.vertices):
            raise InvalidParameter("collect needs a path on original vertices v_i")
        if target not in g:
            raise UnknownVertex(f"no vertex labelled {target}")
        labels = sorted(g.vertices, key=lambda lab: lab.index)
        ctx = strategies.PathContext(g, labels, d, labels.index(target) + 1)
        rep = strategies.collect_on_path(ctx, t)
    elif name == "middle-path":
        n = (g.n + 3) // 2
        if n < 3 or g != graphs.trimmed_middle_path(n):
            raise PebbleError("graph is not a trimmed middle path")
        rep = strategies.middle_path_strategy(n, d, target)
    elif name == "middle-cycle":
        n = g.n // 4
        if g.n % 4 or n < 2 or g != graphs.middle_cycle(n):
            raise PebbleError("graph is not the middle graph of an even cycle")
        rep = strategies.middle_cycle_t_strategy(n, d, target, t)
    elif name == "product":
        rep = strategies.product_collection_strategy(g, d, target)
    else:
        rep = strategies.greedy_solver(g, d, target, t)
    print(f"case: {rep.rationale}")
    for note in rep.notes:
        print(f"note: {note}")
    print(f"delivered {rep.delivered} pebble(s) to {target} "
          f"in {len(rep.sequence)} moves:")
    for mv in rep.sequence:
        print(f"  {mv}")
    if args.witness_out:
        with open(args.witness_out, "w") as fh:
            json.dump(rep.to_json_dict(), fh, indent=2)
    return EXIT_OK if rep.succeeded else EXIT_NEGATIVE


def _parse_range(option: str, text: str) -> list[int]:
    """The values of a range like 3..5 or a single value like 4."""
    lo, sep, hi = text.partition("..")
    values = list(range(read_int(lo, option), read_int(hi if sep else lo, option) + 1))
    if not values:
        raise InvalidParameter(f"{option} range {text!r} is empty")
    return values


# CLI name -> registered claim name; the claim lists the parameters it needs
_VERIFY_CLAIMS = {
    "kn": "complete_graph",
    "pn": "path_graph",
    "cor24": "cor24",
    "lemma26": "middle_even_cycle",
    "middle-even-cycle": "middle_even_cycle",
    "cor27": "cor27_bound",
    "cor31": "cor31_bound",
    "product-bound": "product_bound",
    "ineq21": "ineq21",
    "ineq22": "ineq22",
}


def cmd_verify(args) -> int:
    ledger = registry.ClaimLedger(args.ledger) if args.ledger else None
    if args.csv and ledger is None:
        raise InvalidParameter("--csv summarizes the ledger, so it needs --ledger")
    name = _VERIFY_CLAIMS[args.claim]
    points = [{}]
    for pname in registry.CLAIMS[name].params:
        text = getattr(args, pname)
        values = _parse_range(f"--{pname}", text)
        if pname == "t" and values[0] < 1:  # as every single-valued --t
            raise InvalidParameter(f"--t: needs an integer >= 1, got {text!r}")
        points = [dict(pt, **{pname: v}) for pt in points for v in values]
    records = registry.check_claim(name, points, _budget(args), ledger)
    for rec in records:
        flag = "" if rec.hypothesis_ok else "  [out of hypothesis]"
        print(f"{rec.claim} {json.dumps(rec.params, sort_keys=True)}: "
              f"{rec.status} ({rec.detail}){flag}")
    if args.csv:
        ledger.write_csv(args.csv)
    statuses = {rec.status for rec in records}
    if "refuted" in statuses:
        return EXIT_NEGATIVE
    if "inconclusive" in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_graham(args) -> int:
    rep = registry.check_graham(graph_from_spec(args.left),
                                graph_from_spec(args.right), _budget(args))
    print(f"graham: {rep.verdict} "
          f"(f_left={rep.f_left}, f_right={rep.f_right}, f_product={rep.f_product})"
          + (f": {rep.detail}" if rep.detail else ""))
    return {"holds": EXIT_OK, "violated": EXIT_NEGATIVE}.get(
        rep.verdict, EXIT_INCONCLUSIVE)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pebblekit",
        description="Exact graph pebbling: constructions, solving, "
                    "strategies, formula verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget-nodes",
                        help="cap on search nodes; pebbling-number charges one "
                             "per DP candidate (default: env or 5e6)")
    budget.add_argument("--budget-seconds",
                        help="wall-time cap in seconds (default: env or none)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write graph JSON here")
    out.add_argument("--dot", help="also write DOT here")
    query = argparse.ArgumentParser(add_help=False)
    for flag in ("--graph", "--dist", "--target"):
        query.add_argument(flag, required=True)
    query.add_argument("--t", type=_positive, default=1)

    p = sub.add_parser("construct", help="build a named graph family")
    families = p.add_subparsers(dest="family", required=True)
    p.set_defaults(func=cmd_construct)
    for name in FAMILIES:
        families.add_parser(name, parents=[out]).add_argument("--n", required=True)
    q = families.add_parser("product", parents=[out],
                            help="Cartesian product of two family specs")
    q.add_argument("--left", required=True, help="family spec, e.g. m-cycle:2")
    q.add_argument("--right", required=True)
    q = families.add_parser("delete", parents=[out],
                            help="delete vertices from a graph file")
    q.add_argument("--graph", required=True)
    q.add_argument("--delete", required=True, help="comma-separated labels")

    p = sub.add_parser("solve", parents=[query, budget],
                       help="decide t-solvability for a target")
    either = p.add_mutually_exclusive_group()
    either.add_argument("--witness-out")
    either.add_argument("--replay", help="validate this witness file instead of searching")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("pebbling-number", parents=[budget],
                       help="exact (t-)pebbling number")
    p.add_argument("--graph", required=True)
    p.add_argument("--targets", help="comma-separated labels (default: all vertices)")
    p.add_argument("--t", type=_positive, default=1)
    p.add_argument("--witness-out")
    p.add_argument("--checkpoint", help="resume file: keeps the last completed DP level "
                                        "per target, and a rerun continues from it")
    p.set_defaults(func=cmd_pebbling_number)

    p = sub.add_parser("explain", parents=[query],
                       help="run a constructive strategy and narrate it")
    p.add_argument("--strategy", required=True, choices=_STRATEGY_ALIASES)
    p.add_argument("--witness-out")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("verify", help="check a registered claim over a range")
    claims = p.add_subparsers(dest="claim", required=True)
    for cli_name, name in _VERIFY_CLAIMS.items():
        q = claims.add_parser(cli_name, parents=[budget])
        for pname in registry.CLAIMS[name].params:
            q.add_argument(f"--{pname}", required=True, help="a value or a range like 3..5")
        q.add_argument("--ledger", help="append JSONL records here")
        q.add_argument("--csv", help="write a CSV summary of the ledger here")
        q.set_defaults(func=cmd_verify)
    q = claims.add_parser("graham", parents=[budget],
                          help="f(G x H) <= f(G) f(H) for two family specs")
    q.add_argument("--left", required=True, help="family spec, e.g. path:3")
    q.add_argument("--right", required=True)
    q.set_defaults(func=cmd_graham)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"inconclusive: {exc} ({exc.nodes_explored} nodes explored, "
              f"{exc.elapsed:.2f} s)")
        return EXIT_INCONCLUSIVE
    except (MemoryError, OverflowError):  # OverflowError: _push_half's [(a, b)] * k
        print("inconclusive: out of memory")
        return EXIT_INCONCLUSIVE
    except PreconditionNotMet as exc:
        print(f"hypothesis not met: {exc}")
        return EXIT_NEGATIVE
    except (PebbleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
