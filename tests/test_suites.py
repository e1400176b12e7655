"""Suite runner plumbing.  The heavy per-suite content is exercised by the
acceptance gate; this file checks the result type and registry behave."""

import hashlib
import json
import math
from itertools import combinations

import mpmath
import pytest
from mpmath import iv, mp

from partlab import _dpcore_py, bounds, cli, counting, setspec, suites
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


def test_results_share_no_containers():
    a, b = SuiteResult("x"), SuiteResult("x")
    a.check(False, lambda: ({"n": 1}, "1", "2"))
    a.onsets["bound"] = 3
    a.extras["key"] = "value"
    assert (b.failures, b.onsets, b.extras) == ([], {}, {})
    assert (a.cases, b.cases) == (1, 0) and not a.passed and b.passed


def test_slow_growth_scans_match_plain_loops(monkeypatch):
    # The suite scans only the support of its 2^20 table.  Plant nonzero
    # odd entries and a zero at n = 16 into the support, and compare with
    # the plain loops over every index of the row it stands for.
    real = suites.count_support
    top = suites.SLOW_GROWTH_LIMIT

    rows = []

    def planted(upto, parts, mults):
        support = dict(real(upto, parts, mults))
        support[16], support[17], support[top - 1] = 0, 1, 10**6
        support = {n: v for n, v in support.items() if v}
        rows.append([support.get(n, 0) for n in range(upto + 1)])
        return support

    monkeypatch.setattr(suites, "count_support", planted)
    r = run_suite("slow-growth")
    vals = rows[0]
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


def _table_sizes(monkeypatch):
    """The upto of every count_table call, from the suites or from inside
    counting, and the length of every row a support is spread over."""
    sizes = {"tables": [], "rows": []}

    def table(upto, *args, original=counting.count_table, **kwargs):
        sizes["tables"].append(upto)
        return original(upto, *args, **kwargs)

    def row(support, upto, original=counting._row):
        sizes["rows"].append(upto)
        return original(support, upto)

    monkeypatch.setattr(counting, "count_table", table)
    monkeypatch.setattr(suites, "count_table", table)
    monkeypatch.setattr(counting, "_row", row)
    return sizes


def test_slow_growth_builds_no_row(monkeypatch):
    sizes = _table_sizes(monkeypatch)
    r = run_suite("slow-growth")
    assert r.passed and r.cases == 524295
    assert r.extras["record_indices"] == "16,40,72,576,1088,132160,263232"
    assert sizes == {"tables": [], "rows": []}


def test_debruijn_builds_no_table_above_two_to_the_fifteen(monkeypatch):
    sizes = _table_sizes(monkeypatch)
    assert run_suite("debruijn").passed
    assert max(sizes["tables"]) == 2**15
    assert 2 * suites.DEBRUIJN_LIMIT in sizes["tables"]


def _pointwise_column(bound_id, table):
    """One verdict per applicable n, no blocks and no shared columns: an
    exact value compared directly, a transcendental one (an mpf under mp)
    by one certified_leq / certified_geq of its value under iv."""
    b = bounds.BOUND_REGISTRY[bound_id]
    upper = b.direction == "upper"
    certify = bounds.certified_leq if upper else bounds.certified_geq
    column = [None] * (table.upto + 1)
    for n in range(table.upto + 1):
        if b.direction == "asymptotic" or not b.applies(n, table):
            continue
        exact = b.bounded(n, table)
        value = b.value(mp, n, table)
        if isinstance(value, mpmath.mpf):
            column[n] = certify(exact, lambda n=n: b.value(iv, n, table))
        else:
            column[n] = exact <= value if upper else exact >= value
    return column


def _set(ns, value):
    def plant(vals):
        for n in ns:
            vals[n] = value
    return plant


def _shift(k, by):
    """Move `by` from p(k) to p(k + 1): the cumulative count drops at k alone."""
    def plant(vals):
        vals[k] -= by
        vals[k + 1] += by
    return plant


def _plants(*plants):
    def plant(vals):
        for p in plants:
            p(vals)
    return plant


_CLASSICAL_BLOCK_EDGES = (1002, 1003, 1500, 2000)

# Each case: suite, table size, the parts of the planted table (None: every
# table of that size), the plant, the asserted failures as (n, first word of
# the expected text), and the onsets.  Transcendental violations sit inside
# a large block, on both sides of the first split and at the last n.
# debruijn's applicable n are 2, 4, ..., 8192, so its first split falls
# between 4096 and 4098; the classical bounds are blocked on [5, 2000],
# split between 1002 and 1003.  In refined-onset, p(5) = 0 fails both of
# refined's halves below their asserted ranges, and eq10's flat prefix of
# zeros keeps n <= 6 records that fail below its asserted range: onsets
# count failures that are not asserted.  monotone-lb has no case: a planted
# floor violation makes its table decrease, and then the suite skips the pair.
PLANTED = {
    "debruijn": (
        "debruijn", 2 * suites.DEBRUIJN_LIMIT, None,
        _set((6002, 4096, 4098, 2 * suites.DEBRUIJN_LIMIT), 10**200),
        [(n, "p(2n)") for n in (4096, 4098, 6002, 8192)], {},
    ),
    "sqrt-lower": (
        "sqrt-lower", suites.SQRT_LIMIT, None, _set(_CLASSICAL_BLOCK_EDGES, 1),
        [(n, ">=") for n in _CLASSICAL_BLOCK_EDGES], {"sqrt_lower": 2001},
    ),
    "refined": (
        "refined", suites.REFINED_LIMIT, None, _set(_CLASSICAL_BLOCK_EDGES, 1),
        [(n, ">=") for n in _CLASSICAL_BLOCK_EDGES] * 2,
        {"refined": 2001, "classical_refined": 2001},
    ),
    "refined-onset": (
        "refined", suites.REFINED_LIMIT, None, _set((5,), 0), [],
        {"refined": 6, "classical_refined": 6},
    ),
    "eq4": (
        "eq4", suites.EQ4_LIMIT, "finite:2,3", _set((0, 150, 200), 10**60),
        [(n, "<=") for n in (0, 150, 200)], {},
    ),
    "padberg": (
        "padberg", suites.PADBERG_LIMIT, "finite:2,3", _plants(_shift(0, 1), _shift(300, 200)),
        [(0, ">="), (300, ">=")], {},
    ),
    "padberg-singleton": (
        "padberg", suites.PADBERG_LIMIT, "finite:1",
        _plants(_shift(250, 1), _set((400,), 2)),
        [(250, ">="), (250, "equality")] + [(n, "equality") for n in range(400, 501)], {},
    ),
    "eq10": (
        "eq10", suites.EQ10_LIMIT, "finite:2,3", _set(range(7), 0), [], {"eq10": 7},
    ),
}


# sha256 of each planted report (json.dumps with sorted keys), recorded from
# the per-suite comparison loops that the shared column scan replaced: the
# failure texts, inputs, case counts and onsets are theirs.
PLANTED_REPORT_SHA256 = {
    "debruijn": "40f3b702d7cce3df41daf322a7ae4d568e3c0662c788aba34f28f755fd3ce79e",
    "eq10": "15f52a821b90aab746599e5632fc74539f41abf099725ed1fe18bb8696473e40",
    "eq4": "58afd382ee649cab8f040458e3ac8a97d915a0a2298497b727e0b4e289c84805",
    "padberg": "8b424c2c3821e324b03c8e620ca1c83174f5ec3da4bd7b6e9bb163f5e7347a47",
    "padberg-singleton": "ff0ed2defeabecd1c38a8787e9c51a5c2e924b7de21bdefb37687f62b8cc1d35",
    "refined": "b3416505f62244e540f7f53acb11e81cb1cc20093fb8cf22864602a3ed7d45e1",
    "refined-onset": "9e12083c9342a6c78153c0aa891d83398d1f97602c13827048448ed61da9442f",
    "sqrt-lower": "4c6a55f434f53783c52c24776abcb948095d65c6f257d910a286eb3018c7d3b9",
}


def _run_planted(monkeypatch, name, upto, plants):
    """run_suite(name) where each table to upto whose parts spec is a key of
    plants (the key None: every such table) is changed by that plant.  The
    criterion suite's rows are planted where its walk hands them to the
    check, on a copy, so the rows that the walk extends to supersets stay
    exact."""

    def plant_copy(parts, values):
        plant = plants.get(str(parts), plants.get(None)) if len(values) == upto + 1 else None
        if plant is None:
            return values
        vals = list(values)
        plant(vals)
        return vals

    def planted(n, parts, mults=suites.NAT_MULTS):
        table = counting.count_table(n, parts, mults)
        vals = plant_copy(parts, table.values)
        return table if vals is table.values else CountTable(parts, mults, tuple(vals))

    rows = suites._criterion_rows

    def planted_rows():
        for parts, vals in rows():
            yield parts, plant_copy(parts, vals)

    monkeypatch.setattr(suites, "count_table", planted)
    monkeypatch.setattr(suites, "_criterion_rows", planted_rows)
    return run_suite(name)


def _planted_report(monkeypatch, case):
    name, upto, parts_spec, plant, _, _ = PLANTED[case]
    return _run_planted(monkeypatch, name, upto, {parts_spec: plant}).to_json_dict()


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_block_certification_matches_pointwise_on_planted_failures(monkeypatch, case):
    failures, onsets = PLANTED[case][4:]
    blocks = _planted_report(monkeypatch, case)
    monkeypatch.setattr(bounds, "verdict_column", _pointwise_column)
    pointwise = _planted_report(monkeypatch, case)
    assert blocks == pointwise
    got = [(f["inputs"]["n"], f["expected"].split()[0]) for f in blocks["failures"]]
    assert got == failures
    assert blocks["onsets"] == onsets
    digest = hashlib.sha256(json.dumps(blocks, sort_keys=True).encode()).hexdigest()
    assert digest == PLANTED_REPORT_SHA256[case]


# -- suites that record cases through SuiteResult.check ----------------------

def _scale(n, by):
    def plant(vals):
        vals[n] *= by
    return plant


def _flat_at(n):
    """p(n) = p(n - 1): a non-increase at n."""
    def plant(vals):
        vals[n] = vals[n - 1]
    return plant


def _strictly_increasing(vals):
    vals[:] = range(1, len(vals) + 1)


# The sparse-construction plant lowers the step table that eps(n) is read
# from, at n in [1000, 1009], while the anchors stay those of the real table.
_LOWERED_EPSILON = ((4, 1), (16, 2), (256, 3), (1000, 2), (1010, 3), (65536, 4))

# Each case: suite, table size, {parts spec (None: every table): plant},
# whether eps(n) is read from _LOWERED_EPSILON, and the number of failures.
# The padberg equality check for {1} is pinned by "padberg-singleton" above.
CHECKED_PLANTED = {
    "eq5": ("eq5", suites.EQ5_TABLE_LIMIT, {"finite:2,3": _set(range(101), 0)}, False, 10),
    "hrr": (
        "hrr", suites.HRR_RANGE[1], {"all": _plants(_set((250,), 1), _scale(300, 2))}, False, 3,
    ),
    "monotonicity-criterion": (
        "monotonicity-criterion", suites.CRITERION_LIMIT,
        {"finite:3,4,5": _flat_at(1900), "finite:2,3": _strictly_increasing}, False, 2,
    ),
    "sparse-construction": (
        "sparse-construction", 2**16,
        {"finite:16,256,65536": _plants(_scale(40000, 40000**3), _set((2**16,), 2**64 + 1))},
        True, 12,
    ),
}

# sha256 of each planted result (its JSON dict with the extras, json.dumps
# with sorted keys), recorded when check took ready-made failure texts.
CHECKED_PLANTED_SHA256 = {
    "eq5": "f2516b5603818055417ae0b29cef092d862197f0bc7b010e2aa8554556d4a441",
    "hrr": "17764dd03c8018d5abb4c5e8a13fbfb79559a60a0754b20631ec3d6512cea2fb",
    "monotonicity-criterion": "ee1a62592b5288229b34aa5ce896da7acfe204919dedcb7378f2728d4dacfad8",
    "sparse-construction": "b5a3a1ce2b62c8e46688f27c0255c1dbfb772b8f818b27a848badec04483afaa",
}


@pytest.mark.parametrize("case", sorted(CHECKED_PLANTED))
def test_checked_suites_keep_their_failure_records(monkeypatch, case):
    name, upto, plants, lowered, failures = CHECKED_PLANTED[case]
    if lowered:
        anchors = suites.construct_sparse_set(suites.BUILTIN_EPSILON_TABLE)
        monkeypatch.setattr(suites, "construct_sparse_set", lambda table: anchors)
        monkeypatch.setattr(suites, "BUILTIN_EPSILON_TABLE", _LOWERED_EPSILON)
    res = _run_planted(monkeypatch, name, upto, plants)
    assert len(res.failures) == failures
    report = {**res.to_json_dict(), "extras": res.extras}
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == CHECKED_PLANTED_SHA256[case]


def test_criterion_walk_extends_rows_instead_of_building_tables(monkeypatch, capsys):
    # 756 distinct prefixes of the 721 coprime sets: one layer each, and
    # no table is built for any of the sets
    layers, tables = [], []
    unbounded_layer = _dpcore_py.unbounded_layer

    def counted_layer(values, a):
        layers.append(a)
        unbounded_layer(values, a)

    def no_table(*args, **kwargs):
        tables.append(args)
        return counting.count_table(*args, **kwargs)

    monkeypatch.setattr(_dpcore_py, "unbounded_layer", counted_layer)
    monkeypatch.setattr(suites, "count_table", no_table)
    assert cli.main(["verify", "--suite", "monotonicity-criterion"]) == 0
    capsys.readouterr()
    assert len(layers) == 756
    assert tables == []


def test_criterion_walk_yields_each_coprime_set_with_its_table():
    top, k = suites.CRITERION_MAX_ELEMENT, suites.CRITERION_MAX_K
    coprime = sorted(
        c for size in range(1, k + 1) for c in combinations(range(1, top + 1), size)
        if math.gcd(*c) == 1
    )
    seen = []
    for parts, vals in suites._criterion_rows():
        seen.append(parts.elements)
        assert tuple(vals) == counting.count_table(suites.CRITERION_LIMIT, parts).values
    assert seen == coprime and len(seen) == 721


def _sparse_construction_per_n(eps_table, sset):
    """The sparse-construction suite one n at a time: both checks at every
    n, with step_function_value and count_leq asked at each."""
    res = SuiteResult("sparse-construction")
    res.extras["anchors"] = ",".join(str(a) for a in sset.elements)
    limit = eps_table[-1][0]
    for n in range(sset.elements[0], limit + 1):
        eps = setspec.step_function_value(eps_table, n)
        count = sset.count_leq(n)
        res.check(count + 1 <= eps, lambda: (
            {"parts": str(sset), "n": n}, f"A(n)+1 <= {eps}", f"A(n)={count}",
        ))
    values = counting.count_table(limit, sset).values
    for n in range(suites.SLOW_GROWTH_FROM, limit + 1):
        eps = setspec.step_function_value(eps_table, n)
        res.check(values[n] <= n**eps, lambda: (
            {"parts": str(sset), "mults": "nat", "n": n}, f"<= n^{eps}", str(values[n]),
        ))
    return res


@pytest.mark.parametrize(
    "eps_table,anchors",
    [
        # the anchors of the built-in table, all but one past the last threshold
        (((4, 1), (16, 2), (256, 3), (1000, 2), (1010, 3), (1500, 4)), None),
        # A(n) steps between the thresholds, and A(n)+1 <= eps(n) fails on
        # pieces of both kinds
        (((4, 1), (16, 2), (100, 3), (300, 5), (700, 6)), (20, 90, 95, 400, 650)),
        # eps(n) = 0 and 1 make p(n) <= n^eps(n) fail on some n of a piece
        (((4, 1), (16, 0), (60, 1), (200, 2), (500, 3)), (5, 7, 40, 41, 300)),
    ],
)
def test_sparse_construction_pieces_match_every_n(monkeypatch, eps_table, anchors):
    sset = (suites.construct_sparse_set(suites.BUILTIN_EPSILON_TABLE) if anchors is None
            else setspec.Finite(anchors))
    monkeypatch.setattr(suites, "construct_sparse_set", lambda table: sset)
    monkeypatch.setattr(suites, "BUILTIN_EPSILON_TABLE", eps_table)
    res = run_suite("sparse-construction")
    expected = _sparse_construction_per_n(eps_table, sset)
    assert res.to_json_dict() == expected.to_json_dict()
    assert res.extras == expected.extras
    assert res.cases == expected.cases > 0


def test_passing_sparse_construction_renders_no_spec(monkeypatch):
    # 131,042 passing cases; a failure alone would print the part set
    calls = []
    spec_string = setspec.Finite.spec_string
    monkeypatch.setattr(
        setspec.Finite, "spec_string", lambda self: calls.append(1) or spec_string(self)
    )
    res = run_suite("sparse-construction")
    assert res.passed and res.cases == 131042
    assert len(calls) == 0
