import json
import re
from fractions import Fraction

import pytest

from pebblekit import engine, registry, strategies
from pebblekit.engine import Budget
from pebblekit.errors import InvalidParameter
from pebblekit.graphs import path
from pebblekit.registry import (CLAIMS, ClaimLedger, FormulaClaim,
                                SOURCE_RESULTS, check_claim, check_graham,
                                check_inequality_21, check_inequality_22,
                                delta, known_value, product_hypothesis,
                                resolve_result)


# -- arithmetic --------------------------------------------------------------

def test_delta_value():
    assert delta(5, 7) == 17371


def test_delta_positive():
    assert all(delta(m, n) > 0 for m in range(2, 12) for n in range(2, 12))


def test_delta_residue_consistent():
    # the surplus decomposes as (whole extractions) * 2^(m+1) + remainder
    assert delta(5, 7) % (1 << 6) == 27


def test_inequality_21_at_5_7():
    holds, lhs, rhs, hyp = check_inequality_21(5, 7)
    assert holds and hyp
    assert lhs == 64
    assert rhs == Fraction(487, 7)


def test_inequality_21_out_of_hypothesis_flag():
    holds, lhs, rhs, hyp = check_inequality_21(5, 6)
    assert not hyp  # gap of 1 is outside the proven regime
    assert isinstance(rhs, Fraction)


def test_inequality_21_rhs_increasing_in_n():
    values = [check_inequality_21(5, n)[2] for n in range(7, 41)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_inequality_22_values():
    assert check_inequality_22(5) == (True, 39)
    assert check_inequality_22(4) == (False, -15)


@pytest.mark.parametrize("check, args", [
    (check_inequality_21, (0, 5)), (check_inequality_21, (5, 0)), (check_inequality_22, (0,)),
], ids=["ineq21-m0", "ineq21-n0", "ineq22-m0"])
def test_inequalities_reject_m_or_n_below_one(check, args):
    with pytest.raises(InvalidParameter):
        check(*args)


def test_inequality_22_increasing():
    values = [check_inequality_22(m)[1] for m in range(5, 31)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def test_product_hypothesis_flag():
    assert product_hypothesis(5, 7)
    assert not product_hypothesis(5, 6)
    assert not product_hypothesis(4, 7)


# -- claims ------------------------------------------------------------------

def test_known_values():
    assert known_value("complete_graph", n=4) == 4
    assert known_value("path_graph", n=5) == 16
    assert known_value("cor24", n=5) == 11
    assert known_value("middle_even_cycle", n=2) == 10
    assert known_value("cor27_bound", n=2, t=2) == 18
    assert known_value("cor31_bound", n=2, t=2) == 16


def test_known_value_errors():
    with pytest.raises(InvalidParameter):
        known_value("no_such_claim", n=1)
    with pytest.raises(InvalidParameter):
        known_value("cor24", n=2)  # below the claim's domain
    with pytest.raises(InvalidParameter):
        known_value("ineq22", m=5)  # inequalities have no value


def test_path_claim_records_divergence():
    assert "2^n - 1" in CLAIMS["path_graph"].note
    assert "refuted" in CLAIMS["path_graph"].note


def test_check_claim_confirms_cor24():
    records = check_claim("cor24", [{"n": 3}, {"n": 4}])
    assert [r.status for r in records] == ["confirmed", "confirmed"]
    assert records[0].evidence["oracle"] == 3
    assert records[1].evidence["oracle"] == 6


def test_check_claim_budget_inconclusive():
    records = check_claim("middle_even_cycle", [{"n": 3}],
                          budget=Budget(node_cap=100))
    assert records[0].status == "inconclusive"


def test_inconclusive_record_says_how_far_the_oracle_got():
    (rec,) = check_claim("middle_even_cycle", [{"n": 3}], budget=Budget(node_cap=100))
    found = re.fullmatch(r"oracle budget exhausted \(node budget of 100 exhausted; "
                         r"(\d+) nodes explored, \d+\.\d\d s\)", rec.detail)
    assert rec.status == "inconclusive" and found, rec.detail
    assert int(found[1]) > 100


def test_check_claim_out_of_domain_unchecked(tmp_path):
    # a point outside the domain raises before any point is checked
    ledger = ClaimLedger(str(tmp_path / "ledger.jsonl"))
    with pytest.raises(InvalidParameter, match=re.escape("cor24 is not defined at {'n': 2}")):
        check_claim("cor24", [{"n": 3}, {"n": 2}], ledger=ledger)
    assert not (tmp_path / "ledger.jsonl").exists()


def test_check_claim_ledger_and_csv(tmp_path):
    ledger = ClaimLedger(str(tmp_path / "ledger.jsonl"))
    records = check_claim("complete_graph", [{"n": 2}, {"n": 3}], ledger=ledger)
    assert all(r.status == "confirmed" for r in records)
    lines = [json.loads(s) for s in
             open(tmp_path / "ledger.jsonl").read().splitlines()]
    assert len(lines) == 2
    assert lines[0]["evidence_hash"] == records[0].evidence_hash
    ledger.write_csv(str(tmp_path / "summary.csv"))
    text = (tmp_path / "summary.csv").read_text()
    assert "complete_graph" in text and "confirmed" in text


@pytest.mark.parametrize("bad", [b"{}", b"{bad", b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-a-record", "not-json", "not-utf8", "too-deep"])
def test_write_csv_names_the_malformed_ledger_line(tmp_path, bad):
    file = tmp_path / "ledger.jsonl"
    ledger = ClaimLedger(str(file))
    check_claim("complete_graph", [{"n": 2}], ledger=ledger)
    file.write_bytes(file.read_bytes() + b"\n" + bad + b"\n")  # a blank line 2
    with pytest.raises(InvalidParameter, match=re.escape(f"{file} line 3")):
        ledger.write_csv(str(tmp_path / "summary.csv"))
    assert not (tmp_path / "summary.csv").exists()


def test_check_inequality_claims_via_registry():
    recs = check_claim("ineq22", [{"m": 4}, {"m": 5}])
    assert [r.status for r in recs] == ["refuted", "confirmed"]
    assert not recs[0].hypothesis_ok and recs[1].hypothesis_ok
    assert recs[0].evidence == {"value": -15}
    recs = check_claim("ineq21", [{"m": 5, "n": 7}, {"m": 5, "n": 6}])
    assert [r.status for r in recs] == ["confirmed", "refuted"]
    assert [r.hypothesis_ok for r in recs] == [True, False]
    assert recs[0].evidence == {"lhs": 64, "rhs": "487/7"}


def test_check_claim_flags_product_bound_out_of_hypothesis():
    (rec,) = check_claim("product_bound", [{"n": 2, "m": 2}],
                         budget=Budget(node_cap=1))
    assert rec.status == "inconclusive"
    assert rec.hypothesis_ok is False


def test_claim_kind_must_fit_its_fields():
    oracle = dict(params=("n",), domain=lambda n: True,
                  formula=lambda n: n, instantiate=lambda n: (path(n), None, 1))
    FormulaClaim(name="ok", kind="upper-bound", **oracle)
    with pytest.raises(InvalidParameter):
        FormulaClaim(name="lower", kind="lower-bound", **oracle)
    with pytest.raises(InvalidParameter):
        FormulaClaim(name="no_check", kind="inequality", params=("m",),
                     domain=lambda m: True)


# -- graham ------------------------------------------------------------------

def test_graham_p2_p2():
    rep = check_graham(path(2), path(2))
    assert (rep.verdict, rep.f_left, rep.f_right, rep.f_product) == \
        ("holds", 2, 2, 4)


def test_graham_computes_an_equal_factor_once(monkeypatch):
    calls = []

    def counting(g, **kwargs):
        calls.append(g)
        return engine.compute_pebbling(g, **kwargs)
    monkeypatch.setattr(registry, "compute_pebbling", counting)
    rep = check_graham(path(3), path(3))
    assert (rep.verdict, rep.f_left, rep.f_right, rep.f_product) == \
        ("holds", 4, 4, 16)
    assert [c.n for c in calls] == [3, 9]  # f(P3) once, then f(P3 x P3)


def test_graham_inconclusive_on_budget():
    rep = check_graham(path(3), path(4), budget=Budget(node_cap=10))
    assert rep.verdict == "inconclusive"
    assert re.fullmatch(r"oracle budget exhausted \(node budget of 10 exhausted; "
                        r"\d+ nodes explored, \d+\.\d\d s\)", rep.detail), rep.detail
    assert check_graham(path(2), path(2)).detail == ""


# -- completeness ------------------------------------------------------------

def test_source_results_all_resolve():
    assert len(SOURCE_RESULTS) >= 15
    for rid in SOURCE_RESULTS:
        obj = resolve_result(rid)
        assert obj is not None
        kind, name = SOURCE_RESULTS[rid]
        if kind == "claim":
            assert isinstance(obj, FormulaClaim)
        elif kind == "strategy":
            assert callable(obj) and getattr(strategies, name) is obj
        else:
            assert callable(obj)


def test_source_results_resolve_uniquely():
    # each id maps to exactly one registered entity
    for rid, (kind, name) in SOURCE_RESULTS.items():
        if kind == "claim":
            assert name in CLAIMS
        elif kind == "strategy":
            assert hasattr(strategies, name)
        else:
            import pebblekit.registry as registry_module
            assert hasattr(registry_module, name) or hasattr(engine, name)
