"""Suite runner plumbing.  The heavy per-suite content is exercised by the
acceptance gate; this file checks the result type and registry behave."""

import pytest

from partlab import bounds, suites
from partlab.counting import CountTable
from partlab.suites import SUITES, SuiteFailure, SuiteResult, run_suite


def test_registry_names():
    expected = {
        "eq4", "eq5", "monotone-lb", "schur", "hrr", "debruijn",
        "harmonic-chain", "padberg", "eq10", "refined", "sqrt-lower",
        "slow-growth", "monotonicity-criterion", "sparse-construction",
    }
    assert set(SUITES) == expected


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_result_shape():
    r = run_suite("schur")
    assert isinstance(r, SuiteResult)
    assert r.suite == "schur"
    assert r.cases == 3
    assert r.passed
    assert r.elapsed_ms >= 0


def test_json_dict_is_stable_and_minimal():
    r = run_suite("schur")
    d = r.to_json_dict()
    assert set(d) == {"suite", "cases", "failures", "onsets", "elapsed_ms"}
    # wall time is pinned so repeated runs serialize identically
    assert d["elapsed_ms"] == 0
    assert "extras" not in d


def test_failure_records_serialize():
    f = SuiteFailure(inputs={"n": 3}, expected="1", got="2")
    r = SuiteResult(suite="x", cases=1, failures=(f,))
    assert not r.passed
    d = r.to_json_dict()
    assert d["failures"] == [{"inputs": {"n": 3}, "expected": "1", "got": "2"}]


def test_slow_growth_scans_match_plain_loops(monkeypatch):
    # The suite scans only the nonzero entries of its 2^20 table.  Plant
    # nonzero odd entries and a zero at n = 16, and compare with the plain
    # loops over every index.
    real = suites.count_table
    top = suites.SLOW_GROWTH_LIMIT

    tables = []

    def planted(upto, parts, mults):
        vals = list(real(upto, parts, mults).values)
        vals[16], vals[17], vals[top - 1] = 0, 1, 10**6
        tables.append(CountTable(parts, mults, tuple(vals)))
        return tables[-1]

    monkeypatch.setattr(suites, "count_table", planted)
    r = run_suite("slow-growth")
    vals = tables[0].values
    odd = [n for n in range(1, top + 1, 2) if vals[n] != 0]
    best, records = -1, []
    for n in range(suites.SLOW_GROWTH_FROM, top + 1):
        if vals[n] > best:
            best = vals[n]
            records.append(n)
    parity = [f.inputs["n"] for f in r.failures if f.expected.startswith("0 ")]
    assert parity == odd == [17, top - 1]
    assert r.extras["record_indices"] == ",".join(map(str, records))
    assert records[0] == 16 and top - 1 in records
    assert r.extras["max_count"] == str(max(vals[16:])) == str(10**6)
    assert r.cases == (top + 1) // 2 + len(records)


def _pointwise_column(bound_id, table, digits=bounds.DEFAULT_DIGITS):
    """One certified_leq / certified_geq per applicable n, no blocks."""
    b = bounds.BOUND_REGISTRY[bound_id]
    certify = bounds.certified_leq if b.direction == "upper" else bounds.certified_geq
    column = [None] * (table.upto + 1)
    for n in range(table.upto + 1):
        if b.applies(n, table):
            exact = table.values[n] if b.bounded is None else b.bounded(n, table)
            column[n] = certify(exact, lambda n=n: b.enclosure(n, table), digits)
    return column


# Violations planted in each suite's certified range: inside a large block,
# on both sides of the first split, and at the last n.  debruijn's applicable
# n are 2, 4, ..., 8192, so its first split falls between 4096 and 4098;
# the classical bounds are blocked on [5, 2000], split between 1002 and 1003.
# Each entry: table size, planted n, planted value, the check they fail.
PLANTED = {
    "debruijn": (
        2 * suites.DEBRUIJN_LIMIT, (6002, 4096, 4098, 2 * suites.DEBRUIJN_LIMIT), 10**200,
        "p(2n) <= exp(log(2n+1) log2(2n))",
    ),
    "sqrt-lower": (suites.SQRT_LIMIT, (1500, 1002, 1003, 2000), 1, ">= e^(sqrt n)/n"),
    "refined": (
        suites.REFINED_LIMIT, (1500, 1002, 1003, 2000), 1, ">= e^(2 sqrt n)/(2 pi n^2)",
    ),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_block_certification_matches_pointwise_on_planted_failures(monkeypatch, name):
    upto, planted_ns, value, expected = PLANTED[name]
    real = suites.count_table

    def planted(n, parts, mults=suites.NAT_MULTS):
        table = real(n, parts, mults)
        if n != upto:
            return table
        vals = list(table.values)
        for k in planted_ns:
            vals[k] = value
        return CountTable(parts, mults, tuple(vals))

    monkeypatch.setattr(suites, "count_table", planted)
    blocks = run_suite(name).to_json_dict()
    monkeypatch.setattr(bounds, "verdict_column", _pointwise_column)
    pointwise = run_suite(name).to_json_dict()
    assert blocks == pointwise
    failed = [f["inputs"]["n"] for f in blocks["failures"] if f["expected"] == expected]
    assert failed == sorted(planted_ns)


@pytest.mark.parametrize("name", ["sqrt-lower", "refined", "debruijn", "harmonic-chain"])
def test_reports_do_not_depend_on_precision(name):
    # certified verdicts never flip with precision, so neither does a report
    reports = [run_suite(name, digits).to_json_dict() for digits in (10, 50, 400)]
    assert reports[0] == reports[1] == reports[2]
