"""Workload definitions and output checks shared by run.py,
the in-process tracer and the benchmark's tests.

Every operation is one `partlab` command line.  Its expected output is
stored in references.json as the SHA-256 of stdout plus the exit code,
captured once with record.py.  Counts of the classical partition
function (parts `all`, multiplicities `nat`) are also checked against
Euler's pentagonal recurrence, computed here without partlab.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Every bound id the CLI knows, so `table --bounds` exercises all evaluators.
BOUND_IDS = (
    "classical_refined,debruijn_upper,eq10,harmonic_chain,hrr,monotone_lower,"
    "padberg,product_upper,refined,schur,slow_growth,sqrt_lower"
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation; `size` is "small", "large" or None (single size)."""

    name: str
    argv: tuple[str, ...]
    size: str | None = None

    def option(self, flag: str, default: str | None = None) -> str | None:
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return default


def _table(parts: str, upto: int, size: str) -> Op:
    argv = ("table", "--parts", parts, "--mults", "nat", "--upto", str(upto),
            "--bounds", BOUND_IDS, "--format", "csv")
    return Op(f"table {parts} {upto}", argv, size)


def _count(parts: str, mults: str, n: int, size: str) -> Op:
    argv = ("count", "--parts", parts, "--mults", mults, "--n", str(n))
    return Op(f"count {parts} {mults} {n}", argv, size)


# ROADMAP asks for table sizes 750 and 1500; `all` at 1500 alone takes
# over 30 s, so both sizes are halved to keep repeated runs affordable.
_TABLE_SIZES = (375, 750)

# (parts, mults, small n, large n): the large n is twice the small one,
# so log2(large time / small time) is the growth exponent in n.
_COUNT_CASES = (
    ("all", "nat", 2500, 5000),
    ("all", "zero|finite:1", 1500, 3000),
    ("finite:3,4,5", "nat", 500000, 1000000),
    ("pow:2", "nat", 262144, 524288),
    ("dexp:2", "zero|dexp:2", 524288, 1048576),
)

WORKLOADS: dict[str, tuple[Op, ...]] = {
    "verify-all": (
        Op("verify all", ("verify", "--suite", "all", "--format", "json")),
    ),
    "table-bounds": tuple(
        _table(parts, upto, size)
        for parts in ("all", "finite:2,3", "pow:2")
        for upto, size in zip(_TABLE_SIZES, ("small", "large"))
    ),
    "count-sweep": tuple(
        _count(parts, mults, n, size)
        for parts, mults, small, large in _COUNT_CASES
        for n, size in ((small, "small"), (large, "large"))
    ),
}


def all_ops() -> list[Op]:
    return [op for ops in WORKLOADS.values() for op in ops]


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def pentagonal(upto: int) -> list[int]:
    """p(0..upto) for unrestricted partitions, by Euler's pentagonal
    number theorem: p(n) = sum_k (-1)^(k-1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]."""
    p = [1] + [0] * upto
    for n in range(1, upto + 1):
        total, k = 0, 1
        while (g1 := n - k * (3 * k - 1) // 2) >= 0:
            term = p[g1]
            if (g2 := n - k * (3 * k + 1) // 2) >= 0:
                term += p[g2]
            total += term if k % 2 else -term
            k += 1
        p[n] = total
    return p


def classical_upto(ops) -> int:
    """Largest n whose classical count some operation's oracle check needs."""
    return max((_classical_n(op) for op in ops), default=0)


def _classical_n(op: Op) -> int:
    if op.option("--parts") != "all" or op.option("--mults", "nat") != "nat":
        return 0
    return int(op.option("--n") or op.option("--upto") or 0)


def oracle_problems(op: Op, stdout: bytes, p: list[int]) -> list[str]:
    if not _classical_n(op):
        return []
    text = stdout.decode("utf-8", "replace")
    if op.argv[0] == "count":
        n = int(op.option("--n"))
        got = text.strip()
        return [] if got == str(p[n]) else [f"pentagonal p({n}) = {p[n]}, got {got[:40]!r}"]
    counts = [(line.split(",") + [""])[1] for line in text.splitlines()[1:]]
    want = [str(v) for v in p[: int(op.option("--upto")) + 1]]
    if counts == want:
        return []
    bad = next((i for i, (a, b) in enumerate(zip(counts, want)) if a != b), min(len(counts), len(want)))
    return [f"count column disagrees with the pentagonal recurrence at n = {bad}"]


def check(op: Op, exit_code: int, stdout: bytes, references: dict, p: list[int]) -> list[str]:
    """Problems with one operation's result; empty when it is correct."""
    problems = oracle_problems(op, stdout, p)
    ref = references.get(op.name)
    if ref is None:
        return [f"no reference stored for {op.name!r}", *problems]
    if exit_code != ref["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {ref['exit_code']}")
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != ref["stdout_sha256"]:
        problems.append(f"stdout sha256 {digest[:12]}..., expected {ref['stdout_sha256'][:12]}...")
    return problems
