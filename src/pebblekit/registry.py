"""Closed-form pebbling claims and the machinery to check them.

Every claim stores a formula (an inequality stores its exact check
instead), its parameter domain and the regime its source proves it in;
``SOURCE_RESULTS`` maps the source text's numbered results to the claims
and operations that state them. A claim is only ever marked confirmed by
an actual check run: exact-value claims are compared against the
exhaustive solver, bound claims against the solver on the bounded
quantity, inequality claims by exact integer or rational arithmetic.
Check runs append JSON-lines records carrying an evidence hash, so a
confirmed status is always traceable to a serialized run.
"""

from __future__ import annotations

import csv
import json
import time
from collections.abc import Callable, Sequence

from .errors import MALFORMED_INPUT, BudgetExceeded, InvalidParameter
from .graphs import (Graph, _Frozen, _Record, cartesian_product, complete, cycle_u,
                     middle_cycle, path, trimmed_middle_path)
from .engine import Budget, compute_pebbling
from .strategies import mc_pebbling_bound, product_hypothesis, tmp_pebbling_bound
from . import engine, strategies

# ---------------------------------------------------------------------------
# Exact arithmetic for the product theorem


def delta(m: int, n: int) -> int:
    """The pebble surplus left over after the rich-fiber extraction step of
    the product argument, as a closed form. Positive for all m, n >= 2."""
    return ((1 << (n + 1)) - 2 * n - 2) * mc_pebbling_bound(m) \
        + (1 << (m + 1)) + 4 * n - 1


def check_inequality_21(m: int, n: int) -> tuple[bool, int, Fraction, bool]:
    """2^(m+1) < (m-1)(2^n - 1)/n - m + 2, exactly.

    Returns (holds, lhs, rhs, hypothesis_ok). The rhs is an exact rational;
    evaluation outside the proven regime is permitted but flagged.
    """
    if m < 1 or n < 1:
        raise InvalidParameter("m and n must be >= 1")
    from fractions import Fraction  # here, so importing pebblekit loads no decimal

    lhs = 1 << (m + 1)
    rhs = Fraction((m - 1) * ((1 << n) - 1), n) - m + 2
    return lhs < rhs, lhs, rhs, product_hypothesis(m, n)


def check_inequality_22(m: int) -> tuple[bool, int]:
    """(2m-8)*2^m - m^2 - m + 5 > 0, exactly. Returns (holds, value)."""
    if m < 1:
        raise InvalidParameter("m must be >= 1")
    value = (2 * m - 8) * (1 << m) - m * m - m + 5
    return value > 0, value


def _ineq21_check(m: int, n: int) -> tuple[bool, str, dict]:
    holds, lhs, rhs, _ = check_inequality_21(m, n)
    detail = f"lhs {lhs} {'<' if holds else '>='} rhs {rhs}"
    return holds, detail, {"lhs": lhs, "rhs": str(rhs)}


def _ineq22_check(m: int) -> tuple[bool, str, dict]:
    holds, value = check_inequality_22(m)
    return holds, f"value {value}", {"value": value}


# ---------------------------------------------------------------------------
# Claims


class FormulaClaim(_Frozen):
    """A named closed-form claim about a pebbling quantity.

    The kinds are "exact" (the formula equals the pebbling number),
    "upper-bound" (the pebbling number is at most the formula) and
    "inequality". The first two are checked against the oracle on the
    (graph, targets, t) that ``instantiate`` maps the params to; targets
    None means all vertices. An inequality is pure arithmetic: ``check``
    maps the params to (holds, detail, evidence), and there is no formula.
    ``hypothesis`` says whether a point lies where the source proves the
    claim; a point outside it is still checked, and its record is flagged.
    """

    _fields = ("name", "kind", "params", "domain", "formula",
               "instantiate", "check", "hypothesis", "note")

    def __init__(self, name: str, kind: str, params: tuple[str, ...],
                 domain: Callable[..., bool],
                 formula: Callable[..., int] | None = None,
                 instantiate: Callable[..., tuple[Graph, list | None, int]] | None = None,
                 check: Callable[..., tuple[bool, str, dict]] | None = None,
                 hypothesis: Callable[..., bool] = lambda **kw: True,
                 note: str = ""):
        if (kind not in ("exact", "upper-bound", "inequality")
                or (kind == "inequality") != (check is not None)):
            raise InvalidParameter(f"claim {name}: kind {kind!r} does not fit its fields")
        key = (name, kind, params, domain, formula, instantiate, check, hypothesis, note)
        for f, value in zip(self._fields, key):
            object.__setattr__(self, f, value)
        object.__setattr__(self, "_key", key)


def _claim_list() -> list[FormulaClaim]:
    return [
        FormulaClaim(
            name="complete_graph",
            kind="exact",
            params=("n",),
            formula=lambda n: n,
            domain=lambda n: n >= 1,
            instantiate=lambda n: (complete(n), None, 1),
        ),
        FormulaClaim(
            name="path_graph",
            kind="exact",
            params=("n",),
            formula=lambda n: 1 << (n - 1),
            domain=lambda n: n >= 1,
            instantiate=lambda n: (path(n), None, 1),
            note=("source text prints 2^n - 1, refuted by exhaustive search "
                  "at n=2 (f(P_2) = 2, not 3); the oracle-consistent 2^(n-1) "
                  "is stored instead"),
        ),
        FormulaClaim(
            name="cor24",
            kind="exact",
            params=("n",),
            formula=tmp_pebbling_bound,
            domain=lambda n: n >= 3,
            instantiate=lambda n: (trimmed_middle_path(n), None, 1),
        ),
        FormulaClaim(
            name="middle_even_cycle",
            kind="exact",
            params=("n",),
            formula=mc_pebbling_bound,
            domain=lambda n: n >= 2,
            instantiate=lambda n: (middle_cycle(n), None, 1),
            note=("imported statement; its own proof is in a reference that "
                  "is not available here, so confirmation is oracle-only"),
        ),
        FormulaClaim(
            name="cor27_bound",
            kind="upper-bound",
            params=("n", "t"),
            formula=mc_pebbling_bound,
            domain=lambda n, t: n >= 2 and t >= 1,
            instantiate=lambda n, t: (middle_cycle(n), None, t),
        ),
        FormulaClaim(
            name="cor31_bound",
            kind="upper-bound",
            params=("n", "t"),
            formula=lambda n, t: mc_pebbling_bound(n) + (t - 1) * tmp_pebbling_bound(n + 2),
            domain=lambda n, t: n >= 2 and t >= 1,
            # the bound is for edge-vertex targets only, so the oracle runs
            # against a single representative (rotations act transitively)
            instantiate=lambda n, t: (middle_cycle(n), [cycle_u(2 * n, 0)], t),
        ),
        FormulaClaim(
            name="product_bound",
            kind="upper-bound",
            params=("n", "m"),
            formula=lambda n, m: mc_pebbling_bound(n) * mc_pebbling_bound(m),
            domain=lambda n, m: n >= 2 and m >= 2,
            instantiate=lambda n, m: (
                cartesian_product(middle_cycle(n), middle_cycle(m)), None, 1),
            hypothesis=lambda n, m: product_hypothesis(m, n),
            note="proven for n, m >= 5 with |n - m| >= 2; other points are out of hypothesis",
        ),
        FormulaClaim(
            name="ineq21",
            kind="inequality",
            params=("m", "n"),
            domain=lambda m, n: m >= 1 and n >= 1,
            check=_ineq21_check,
            hypothesis=product_hypothesis,
        ),
        FormulaClaim(
            name="ineq22",
            kind="inequality",
            params=("m",),
            domain=lambda m: m >= 1,
            check=_ineq22_check,
            hypothesis=lambda m: m >= 5,
        ),
    ]


CLAIMS: dict[str, FormulaClaim] = {c.name: c for c in _claim_list()}


def _claim_at(name: str, points: Sequence[dict]) -> FormulaClaim:
    """The claim registered as name, once every point lies in its domain."""
    claim = CLAIMS.get(name)
    if claim is None:
        raise InvalidParameter(f"no claim named {name!r}")
    for pt in points:
        if not claim.domain(**pt):
            raise InvalidParameter(f"{name} is not defined at {pt}")
    return claim


def known_value(name: str, **params) -> int:
    """Evaluate a registered closed form at a parameter point."""
    claim = _claim_at(name, [params])
    if claim.kind == "inequality":
        raise InvalidParameter(f"{name} is an inequality, not a value")
    return claim.formula(**params)


# ---------------------------------------------------------------------------
# Check runs and the ledger


class CheckRecord(_Record):
    """``status`` is confirmed, refuted or inconclusive;
    ``evidence`` is a new dict and ``timestamp`` the time of construction
    when None."""

    _fields = ("claim", "params", "status", "detail", "evidence", "hypothesis_ok",
               "timestamp")

    def __init__(self, claim: str, params: dict, status: str, detail: str,
                 evidence: dict | None = None, hypothesis_ok: bool = True,
                 timestamp: float | None = None):
        self.claim, self.params, self.status, self.detail = claim, params, status, detail
        self.evidence = {} if evidence is None else evidence
        self.hypothesis_ok = hypothesis_ok
        self.timestamp = time.time() if timestamp is None else timestamp

    @property
    def evidence_hash(self) -> str:
        import hashlib  # here, so importing pebblekit loads no OpenSSL

        payload = json.dumps({"claim": self.claim, "params": self.params,
                              "evidence": self.evidence}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_json_dict(self) -> dict:
        return dict(zip(self._fields, self._astuple()), evidence_hash=self.evidence_hash)


class ClaimLedger:
    """Append-only JSON-lines record of check runs, plus a CSV summary."""

    def __init__(self, path: str):
        self.path = path

    def append(self, records: Sequence[CheckRecord]) -> None:
        with open(self.path, "a") as fh:
            for rec in records:
                fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")

    def write_csv(self, csv_path: str) -> None:
        """Summarize the ledger; a line that is not a record is an
        InvalidParameter naming the ledger and the line, before the CSV is
        opened."""
        rows = []
        with open(self.path, "rb") as fh:  # a line that does not decode fails in json.loads
            for num, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    rows.append([rec["claim"], json.dumps(rec["params"], sort_keys=True),
                                 rec["status"], rec["hypothesis_ok"], rec["evidence_hash"]])
                except MALFORMED_INPUT as exc:
                    raise InvalidParameter(f"malformed ledger {self.path} line {num}: "
                                           f"{type(exc).__name__}: {exc}") from None
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["claim", "params", "status", "hypothesis_ok", "evidence_hash"])
            writer.writerows(rows)


def _exhausted(exc: BudgetExceeded) -> str:
    """How far the oracle got before its budget ran out."""
    return (f"oracle budget exhausted ({exc}; {exc.nodes_explored} nodes explored, "
            f"{exc.elapsed:.2f} s)")


def _check_point(claim: FormulaClaim, params: dict,
                 budget: Budget | None) -> CheckRecord:
    hyp = claim.hypothesis(**params)
    if claim.kind == "inequality":
        holds, detail, evidence = claim.check(**params)
        return CheckRecord(claim.name, params, "confirmed" if holds else "refuted",
                           detail, evidence, hyp)
    expected = claim.formula(**params)
    g, targets, t = claim.instantiate(**params)
    try:
        report = compute_pebbling(g, targets=targets, t=t, budget=budget)
    except BudgetExceeded as exc:
        return CheckRecord(claim.name, params, "inconclusive", _exhausted(exc), {}, hyp)
    oracle = report.value
    evidence = {"oracle": oracle, "expected": expected, "t": t,
                "targets": None if targets is None else [str(x) for x in targets],
                "distributions_checked": report.distributions_checked,
                "dp_targets": [str(x) for x in report.dp_targets]}
    if claim.kind == "exact":
        ok = oracle == expected
        detail = f"oracle {oracle} {'==' if ok else '!='} formula {expected}"
    else:
        ok = oracle <= expected
        detail = f"oracle {oracle} {'<=' if ok else '>'} bound {expected}"
    return CheckRecord(claim.name, params, "confirmed" if ok else "refuted",
                       detail, evidence, hyp)


def check_claim(name: str, points: Sequence[dict],
                budget: Budget | None = None,
                ledger: ClaimLedger | None = None) -> list[CheckRecord]:
    """Check a registered claim at each parameter point; budget exhaustion
    yields inconclusive, never refuted-by-timeout. A point outside the
    claim's domain is an InvalidParameter, raised before any point is
    checked."""
    claim = _claim_at(name, points)
    records = [_check_point(claim, dict(pt), budget) for pt in points]
    if ledger is not None:
        ledger.append(records)
    return records


# ---------------------------------------------------------------------------
# Graham's conjecture check


class GrahamReport(_Record):
    """``detail`` says how far an inconclusive check got, and is empty
    otherwise."""

    _fields = ("verdict", "f_left", "f_right", "f_product", "detail")

    def __init__(self, verdict: str,  # holds | violated | inconclusive
                 f_left: int | None, f_right: int | None, f_product: int | None,
                 detail: str = ""):
        self.verdict, self.f_left, self.f_right, self.f_product = \
            verdict, f_left, f_right, f_product
        self.detail = detail


def check_graham(g: Graph, h: Graph,
                 budget: Budget | None = None) -> GrahamReport:
    """Compare f(g x h) against f(g) * f(h), all three exactly. Budget
    exhaustion at any of the three computations is inconclusive. Equal
    factors share one computation."""
    fg = fh = fp = None
    try:
        fg = compute_pebbling(g, budget=budget).value
        fh = fg if h == g else compute_pebbling(h, budget=budget).value
        fp = compute_pebbling(cartesian_product(g, h), budget=budget).value
    except BudgetExceeded as exc:
        return GrahamReport("inconclusive", fg, fh, fp, _exhausted(exc))
    return GrahamReport("holds" if fp <= fg * fh else "violated", fg, fh, fp)


# ---------------------------------------------------------------------------
# Source-result index
#
# Every numbered result of the source text resolves to exactly one claim,
# strategy, or operation in this package; a test enumerates the mapping.

SOURCE_RESULTS: dict[str, tuple[str, str]] = {
    "def-2.1": ("strategy", "path_weight"),
    "prop-2.2": ("strategy", "collect_on_path"),
    "cor-2.3": ("strategy", "collect_on_path"),
    "cor-2.4": ("claim", "cor24"),
    "def-2.5": ("operation", "compute_pebbling"),
    "lemma-2.6": ("claim", "middle_even_cycle"),
    "cor-2.7": ("claim", "cor27_bound"),
    "eq-2.1": ("operation", "check_inequality_21"),
    "eq-2.2": ("operation", "check_inequality_22"),
    "delta": ("operation", "delta"),
    "thm-2.8": ("strategy", "product_collection_strategy"),
    "cor-3.1": ("claim", "cor31_bound"),
    "thm-3.2": ("claim", "product_bound"),
    "graham-conjecture": ("operation", "check_graham"),
    "lower-bound-max": ("operation", "lower_bound"),
    "f-complete": ("claim", "complete_graph"),
    "f-path": ("claim", "path_graph"),
}


def resolve_result(result_id: str):
    """Return the object a source result maps to; raises if unmapped."""
    kind, name = SOURCE_RESULTS[result_id]
    if kind == "claim":
        return CLAIMS[name]
    if kind == "strategy":
        return getattr(strategies, name)
    here = globals()
    if name in here:
        return here[name]
    return getattr(engine, name)
