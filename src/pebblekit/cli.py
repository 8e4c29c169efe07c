"""Batch command-line front end.

Exit codes are a stable scripting contract: 0 = solvable/confirmed/holds,
1 = unsolvable/refuted/violated, 2 = inconclusive (budget), 3 = usage or
parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import graphs, registry, strategies
from .engine import (Budget, Distribution, MoveSequence, compute_pebbling,
                     is_solvable, replay, SweepCheckpoint)
from .errors import BudgetExceeded, PebbleError, PreconditionNotMet
from .graphs import Graph, parse_label

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=int, default=None,
                   help="cap on search nodes; pebbling-number charges one "
                        "per DP candidate (default: env or 5e6)")
    p.add_argument("--budget-seconds", type=float, default=None,
                   help="wall-time cap in seconds")


def _budget(args) -> Budget:
    """The budget the flags ask for; the environment's when neither is given."""
    if args.budget_nodes is None and args.budget_seconds is None:
        return Budget.from_env()
    return Budget(args.budget_nodes, args.budget_seconds)


# ---------------------------------------------------------------------------
# Family shorthand: name:param, e.g. m-cycle:2, m-path-trimmed:4


def graph_from_spec(spec: str) -> Graph:
    name, _, num = spec.partition(":")
    if not num:
        raise PebbleError(f"family spec needs a parameter, e.g. {name}:4")
    n = int(num)
    builders = {
        "path": graphs.path,
        "cycle": graphs.cycle,
        "complete": graphs.complete,
        "m-path": lambda n: graphs.middle_graph(graphs.path(n)),
        "m-path-trimmed": graphs.trimmed_middle_path,
        "m-cycle": graphs.middle_cycle,
    }
    if name not in builders:
        raise PebbleError(f"unknown family {name!r} "
                          f"(known: {', '.join(sorted(builders))})")
    return builders[name](n)


def _load_graph(path: str) -> Graph:
    with open(path) as fh:
        return Graph.from_json(fh.read())


def _load_dist(path: str) -> Distribution:
    with open(path) as fh:
        return Distribution.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_construct(args) -> int:
    if args.family == "product":
        if not args.left or not args.right:
            raise PebbleError("product needs --left and --right family specs")
        g = graphs.cartesian_product(graph_from_spec(args.left),
                                     graph_from_spec(args.right))
    elif args.family == "delete":
        if not args.graph or not args.delete:
            raise PebbleError("delete needs --graph and --delete labels")
        labels = [parse_label(s) for s in args.delete.split(",")]
        g = graphs.delete_vertices(_load_graph(args.graph), labels)
    else:
        if args.n is None:
            raise PebbleError(f"family {args.family} needs --n")
        names = {"path": "path", "cycle": "cycle", "complete": "complete",
                 "middle-path": "m-path", "m-path": "m-path",
                 "middle-cycle": "m-cycle", "m-cycle": "m-cycle",
                 "m-path-trimmed": "m-path-trimmed"}
        if args.family not in names:
            raise PebbleError(f"unknown family {args.family!r}")
        g = graph_from_spec(f"{names[args.family]}:{args.n}")
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
    g = _load_graph(args.graph)
    target = parse_label(args.target)
    d = _load_dist(args.dist)
    if args.replay:
        with open(args.replay) as fh:
            seq = MoveSequence.from_json_list(json.load(fh))
        final = replay(g, d, seq)  # raises on an illegal move
        if final.get(target) >= args.t:
            print(f"verified: {len(seq)} moves leave "
                  f"{final.get(target)} pebble(s) on {target}")
            return EXIT_OK
        print(f"replay legal but leaves only {final.get(target)} "
              f"pebble(s) on {target}, needed {args.t}")
        return EXIT_NEGATIVE
    try:
        outcome = is_solvable(g, d, target, args.t, _budget(args))
    except BudgetExceeded as exc:
        print(f"inconclusive: {exc}")
        return EXIT_INCONCLUSIVE
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
    g = _load_graph(args.graph)
    targets = None
    if args.targets:
        targets = [parse_label(s) for s in args.targets.split(",")]
    checkpoint = SweepCheckpoint(args.checkpoint) if args.checkpoint else None
    try:
        report = compute_pebbling(g, targets=targets, t=args.t,
                                  budget=_budget(args), checkpoint=checkpoint)
    except BudgetExceeded as exc:
        print(f"inconclusive: {exc}")
        return EXIT_INCONCLUSIVE
    scope = "restricted to given targets" if report.restricted_targets \
        else "over all targets"
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
    name = _STRATEGY_ALIASES.get(args.strategy)
    if name is None:
        raise PebbleError(f"unknown strategy {args.strategy!r} "
                          f"(known: {', '.join(sorted(_STRATEGY_ALIASES))})")
    g = _load_graph(args.graph)
    d = _load_dist(args.dist)
    target = parse_label(args.target)
    t = args.t
    try:
        if name == "collect":
            # the graph itself must be a path; the context is the whole path
            labels = sorted(g.vertices, key=lambda lab: lab.index)
            ctx = strategies.PathContext(g, labels, d, labels.index(target) + 1)
            rep = strategies.collect_on_path(ctx, t)
        elif name == "middle-path":
            n = (g.n + 3) // 2
            if g != graphs.trimmed_middle_path(n):
                raise PebbleError("graph is not a trimmed middle path")
            if t != 1:
                raise PebbleError("this strategy delivers a single pebble")
            rep = strategies.middle_path_strategy(n, d, target)
        elif name == "middle-cycle":
            n = g.n // 4
            if g.n % 4 or g != graphs.middle_cycle(n):
                raise PebbleError("graph is not the middle graph of an even cycle")
            rep = strategies.middle_cycle_t_strategy(n, d, target, t)
        elif name == "product":
            if t != 1:
                raise PebbleError("this strategy delivers a single pebble")
            rep = strategies.product_collection_strategy(g, d, target)
        else:
            rep = strategies.greedy_solver(g, d, target, t)
    except (ValueError, AttributeError, PebbleError) as exc:
        if isinstance(exc, PreconditionNotMet):
            print(f"hypothesis not met: {exc}")
            return EXIT_NEGATIVE
        print(f"structural error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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


def _parse_range(text: Optional[str]) -> Optional[list[int]]:
    if text is None:
        return None
    lo, sep, hi = text.partition("..")
    if sep:
        return list(range(int(lo), int(hi) + 1))
    return [int(lo)]


_VERIFY_CLAIMS = {
    "kn": ("complete_graph", ("n",)),
    "pn": ("path_graph", ("n",)),
    "cor24": ("cor24", ("n",)),
    "lemma26": ("middle_even_cycle", ("n",)),
    "middle-even-cycle": ("middle_even_cycle", ("n",)),
    "cor27": ("cor27_bound", ("n", "t")),
    "cor31": ("cor31_bound", ("n", "t")),
    "product-bound": ("product_bound", ("n", "m")),
    "ineq21": ("ineq21", ("m", "n")),
    "ineq22": ("ineq22", ("m",)),
}


def cmd_verify(args) -> int:
    if args.claim == "graham":
        if not args.left or not args.right:
            raise PebbleError("graham needs --left and --right family specs")
        rep = registry.check_graham(graph_from_spec(args.left),
                                    graph_from_spec(args.right), _budget(args))
        print(f"graham: {rep.verdict} "
              f"(f_left={rep.f_left}, f_right={rep.f_right}, f_product={rep.f_product})")
        return {"holds": EXIT_OK, "violated": EXIT_NEGATIVE}.get(
            rep.verdict, EXIT_INCONCLUSIVE)
    entry = _VERIFY_CLAIMS.get(args.claim)
    if entry is None:
        raise PebbleError(f"unknown claim {args.claim!r} "
                          f"(known: graham, {', '.join(sorted(_VERIFY_CLAIMS))})")
    name, param_names = entry
    ranges = {"n": _parse_range(args.n), "m": _parse_range(args.m),
              "t": _parse_range(args.t)}
    points = [{}]
    for pname in param_names:
        values = ranges.get(pname)
        if values is None:
            raise PebbleError(f"claim {args.claim} needs --{pname}")
        points = [dict(pt, **{pname: v}) for pt in points for v in values]
    ledger = registry.ClaimLedger(args.ledger) if args.ledger else None
    records = registry.check_claim(name, points, _budget(args), ledger)
    for rec in records:
        flag = "" if rec.hypothesis_ok else "  [out of hypothesis]"
        print(f"{rec.claim} {json.dumps(rec.params, sort_keys=True)}: "
              f"{rec.status} ({rec.detail}){flag}")
    if ledger and args.csv:
        ledger.write_csv(args.csv)
    statuses = {rec.status for rec in records}
    if "refuted" in statuses:
        return EXIT_NEGATIVE
    if "inconclusive" in statuses or "unchecked" in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pebblekit",
        description="Exact graph pebbling: constructions, solving, "
                    "strategies, formula verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named graph family")
    p.add_argument("family", help="path | cycle | complete | middle-path | "
                                  "middle-cycle | m-path-trimmed | product | delete")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--left", default=None, help="product factor, e.g. m-cycle:2")
    p.add_argument("--right", default=None)
    p.add_argument("--graph", default=None, help="input graph for delete")
    p.add_argument("--delete", default=None, help="comma-separated labels to delete")
    p.add_argument("--out", default=None, help="write graph JSON here")
    p.add_argument("--dot", default=None, help="also write DOT here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("solve", help="decide t-solvability for a target")
    p.add_argument("--graph", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--witness-out", default=None)
    p.add_argument("--replay", default=None,
                   help="validate this witness file instead of searching")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("pebbling-number", help="exact (t-)pebbling number")
    p.add_argument("--graph", required=True)
    p.add_argument("--targets", default=None,
                   help="comma-separated labels (default: all vertices)")
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--witness-out", default=None)
    p.add_argument("--checkpoint", default=None,
                   help="resume file: keeps the last completed level of "
                        "unsolvable distributions per target, and a rerun "
                        "continues from it")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_pebbling_number)

    p = sub.add_parser("explain", help="run a constructive strategy and narrate it")
    p.add_argument("--strategy", required=True,
                   help="collect | middle-path | middle-cycle | product | greedy")
    p.add_argument("--graph", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--witness-out", default=None)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("verify", help="check a registered claim over a range")
    p.add_argument("claim")
    p.add_argument("--n", default=None, help="range like 3..5 or a single value")
    p.add_argument("--m", default=None)
    p.add_argument("--t", default=None)
    p.add_argument("--left", default=None, help="graham factor spec")
    p.add_argument("--right", default=None)
    p.add_argument("--ledger", default=None, help="append JSONL records here")
    p.add_argument("--csv", default=None, help="write a CSV summary here")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (PebbleError, OSError, json.JSONDecodeError) as exc:
        if isinstance(exc, PreconditionNotMet):
            print(f"hypothesis not met: {exc}")
            return EXIT_NEGATIVE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
