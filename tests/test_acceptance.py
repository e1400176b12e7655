"""Acceptance gate: fifteen quantitative criteria, one per test.

Each test prints a single pass/fail line (visible under -s, or in captured
output) and then asserts.  Tolerances are pinned here as exact rationals or
explicit float bands; expected values were frozen from independent oracles,
never from the code under test.  Run order follows the numbering.
"""

import hashlib
import math
import re
from fractions import Fraction

import mpmath

from partlab import _dpcore_py
from partlab.arith import FiniteCoprimeSet, frobenius_threshold
from partlab.bounds import hrr_leading_term
from partlab.cli import main
from partlab.corpus import CORPUS
from partlab.counting import (
    brute_force_count,
    count_table,
    pentagonal_table,
)
from partlab.setspec import ALL_PARTS, Finite, WithZero
from partlab.suites import run_suite


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{label}]: {verdict}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _suite_green(num: int, label: str, name: str, cases: int) -> "SuiteResult":
    r = run_suite(name)
    ok = r.passed and r.cases == cases
    detail = f"cases={r.cases}, failures={len(r.failures)}"
    if r.failures:
        f = r.failures[0]
        detail += f"; first: {f.inputs} expected {f.expected} got {f.got}"
    _report(num, label, ok, detail)
    return r


def test_criterion_01_oracle_equivalence():
    # every pair, every n <= 30, DP == explicit enumeration; the corpus
    # must also touch every set representation at least once
    kinds = set()
    mismatches = []
    for pair in CORPUS:
        for spec in (pair.parts, pair.mults):
            kinds.add(type(spec).__name__)
            if isinstance(spec, WithZero):
                kinds.add(type(spec.inner).__name__)
    table_cache = {
        pair.label: count_table(30, pair.parts, pair.mults) for pair in CORPUS
    }
    for pair in CORPUS:
        values = table_cache[pair.label].values
        for n in range(31):
            if values[n] != brute_force_count(n, pair.parts, pair.mults):
                mismatches.append((pair.label, n))
    required = {
        "Finite", "AllFrom", "ArithmeticProgression", "Powers",
        "DoublyExponential", "WithZero",
    }
    ok = not mismatches and len(CORPUS) >= 12 and required <= kinds
    _report(
        1, "oracle equivalence", ok,
        f"pairs={len(CORPUS)}, mismatches={mismatches[:3]}, kinds={len(kinds)}",
    )


def test_criterion_02_pentagonal_cross_check():
    # count_table builds all/nat with the pentagonal recurrence itself, so
    # the independent side is the plain dense DP, one layer per part
    dp = count_table(500, ALL_PARTS, kernel=_dpcore_py).values
    oracle = pentagonal_table(500)
    ok = list(dp) == oracle and dp[100] == 190569292
    _report(2, "pentagonal recurrence", ok, f"p(100)={dp[100]}")


def test_criterion_03_product_ceiling():
    _suite_green(3, "product ceiling, n<=200", "eq4", cases=3819)


def test_criterion_04_average_witness():
    _suite_green(4, "witness below n^2", "eq5", cases=570)


def test_criterion_05_polynomial_ratio():
    p123 = count_table(2000, Finite((1, 2, 3))).values[2000]
    dev = abs(Fraction(p123 * 12, 2000**2) - 1)
    p357 = count_table(5000, Finite((3, 5, 7))).values[5000]
    ratio = Fraction(p357 * 2 * 105, 5000**2)
    ok = (
        p123 == 334334
        and dev <= Fraction(1, 100)
        and p357 == 119405
        and Fraction(9, 10) <= ratio <= Fraction(11, 10)
    )
    _report(
        5, "polynomial growth ratios", ok,
        f"dev@2000={float(dev):.6f}, ratio@5000={float(ratio):.6f}",
    )


def test_criterion_06_exponential_ratio():
    table = count_table(500, ALL_PARTS)
    ratios = []
    for n in (200, 300, 500):
        with mpmath.workdps(50):
            ratios.append(float(table.values[n] / hrr_leading_term(n).value))
    in_band = all(0.90 <= r <= 1.00 for r in ratios)
    increasing = ratios[0] < ratios[1] < ratios[2]
    _report(
        6, "exponential leading term", in_band and increasing,
        "ratios=" + ", ".join(f"{r:.6f}" for r in ratios),
    )


def test_criterion_07_binary_log_ceiling():
    r = _suite_green(7, "binary partition log ceiling", "debruijn", cases=4097)
    ratio = float(r.extras["log_ratio_at_pow16"])
    _report(7, "binary log ratio at 2^16", 0.3 <= ratio <= 1.5, f"ratio={ratio}")


def test_criterion_08_harmonic_chain():
    _suite_green(8, "n^A(n) e^(H_n) ceiling, n<=200", "harmonic-chain", cases=2600)


def test_criterion_09_sparse_construction():
    r = _suite_green(
        9, "sparse set under lg lg budget", "sparse-construction", cases=131042
    )
    ok = r.extras.get("anchors") == "16,256,65536"
    # direct boundary spot checks: counting stays below the step budget
    sset = Finite((16, 256, 65536))
    spots = all(
        [
            sset.count_leq(16) + 1 <= 2,
            sset.count_leq(255) + 1 <= 2,
            sset.count_leq(256) + 1 <= 3,
            sset.count_leq(65536) + 1 <= 4,
        ]
    )
    _report(9, "sparse anchors and boundaries", ok and spots, r.extras.get("anchors", ""))


def test_criterion_10_slow_growth():
    r = _suite_green(
        10, "doubly exponential slow growth", "slow-growth", cases=524295
    )
    ok = (
        r.extras["max_count"] == "13"
        and float(r.extras["min_sufficient_slack"]) <= 4.0
    )
    _report(
        10, "slack within 4", ok,
        f"max p={r.extras['max_count']}, min slack={r.extras['min_sufficient_slack']}",
    )


def test_criterion_11_frobenius():
    failures = []
    if frobenius_threshold(FiniteCoprimeSet((3, 5))) != 8:
        failures.append("{3,5}")
    if frobenius_threshold(FiniteCoprimeSet((6, 10, 15))) != 30:
        failures.append("{6,10,15}")
    for a in range(2, 31):
        for b in range(a + 1, 31):
            if math.gcd(a, b) != 1:
                continue
            if frobenius_threshold(FiniteCoprimeSet((a, b))) != a * b - a - b + 1:
                failures.append(f"{{{a},{b}}}")
    _report(11, "representability thresholds", not failures, f"failures={failures}")


def test_criterion_12_monotonicity_criterion():
    r = _suite_green(
        12, "strict increase criterion", "monotonicity-criterion", cases=721
    )
    from partlab.arith import eventually_strictly_increasing

    ok = (
        r.extras["counterexample_2_3"] == "p(6)=2 > p(7)=1"
        and r.extras["window_3_4_5"].startswith("W=62")
        and not eventually_strictly_increasing(FiniteCoprimeSet((2, 3)))
        and eventually_strictly_increasing(FiniteCoprimeSet((3, 4, 5)))
    )
    _report(12, "criterion extras and verdicts", ok, str(r.extras))


def test_criterion_13_cumulative_floor():
    _suite_green(13, "cumulative count floor, n<=500", "padberg", cases=3006)
    sums = count_table(500, Finite((1,))).prefix_sums
    equal = all(sums[n] == n + 1 for n in range(0, 501, 50))
    _report(13, "equality for the singleton set", equal)


def test_criterion_14_record_and_prefix_floors():
    r10 = _suite_green(14, "record-index floor", "eq10", cases=8097)
    r11 = _suite_green(14, "adaptive prefix floor", "refined", cases=3892)
    rsq = _suite_green(14, "exp(sqrt n)/n floor", "sqrt-lower", cases=1901)
    onsets = {**r10.onsets, **r11.onsets, **rsq.onsets}
    expected = {"eq10": 0, "refined": 1, "classical_refined": 2, "sqrt_lower": 3}
    _report(14, "empirical onsets", onsets == expected, str(onsets))


# sha256 of `verify --suite all --format json` (as in perfbench/references.json),
# and of the human report with its "  N ms" timings stripped.  Only the
# human report shows the extras (form_ratio_min, record_indices, ...).
VERIFY_JSON_SHA256 = "aab8e7b81e987e4fe7cfad209fab466975af12feb8bac079408e7f4bb6833e32"
VERIFY_HUMAN_SHA256 = "70252955e58b9ab15e68b15a1036b50ebabe399eb9c35f9a65fc94ac4fc813f7"


def test_criterion_15_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code = main(["verify", "--format", "json", "--out", str(target)])
        assert code == 0
    same = a.read_bytes() == b.read_bytes()
    _report(15, "byte-identical verify output", same, f"{a.stat().st_size} bytes")
    digest = hashlib.sha256(a.read_bytes()).hexdigest()
    _report(15, "verify JSON digest", digest == VERIFY_JSON_SHA256, digest)


def test_criterion_15_human_report_digest(tmp_path):
    target = tmp_path / "verify.txt"
    assert main(["verify", "--out", str(target)]) == 0
    text = re.sub(r"  [0-9]+ ms$", "", target.read_text(), flags=re.M)
    digest = hashlib.sha256(text.encode()).hexdigest()
    _report(15, "verify human report digest", digest == VERIFY_HUMAN_SHA256, digest)
