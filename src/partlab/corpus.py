"""A fixed collection of (parts, mults) pairs exercising every set-spec
variant in both roles.

The verification suites and the test suite iterate over this corpus so
that coverage claims ("every variant appears in some pair") are checked
in one place.  Labels are stable identifiers used in reports.  The
sparse part set is built by construct_sparse_set; like every finite set
it is a Finite and prints as finite:A,B,...
"""

from __future__ import annotations

from typing import NamedTuple

from .setspec import IntegerSetSpec, construct_sparse_set, parse_set_spec

# Step table for the built-in slowly growing target function: value 1 from
# x = 4, then 2 from 16, 3 from 256, 4 from 65536.
BUILTIN_EPSILON_TABLE: tuple[tuple[int, int], ...] = (
    (4, 1),
    (16, 2),
    (256, 3),
    (65536, 4),
)


class CorpusPair(NamedTuple):
    label: str
    parts: IntegerSetSpec
    mults: IntegerSetSpec


def _pair(label: str, parts: str | IntegerSetSpec, mults: str) -> CorpusPair:
    if isinstance(parts, str):
        parts = parse_set_spec(parts, "parts")
    return CorpusPair(label, parts, parse_set_spec(mults, "mults"))


CORPUS: tuple[CorpusPair, ...] = (
    _pair("classical", "all", "nat"),
    _pair("no-ones", "all-from:2", "nat"),
    _pair("single-part", "finite:1", "nat"),
    _pair("two-odd", "finite:3,5", "nat"),
    _pair("two-coprime", "finite:2,3", "nat"),
    _pair("chicken", "finite:6,10,15", "nat"),
    _pair("schur-123", "finite:1,2,3", "nat"),
    _pair("ap-3-4", "ap:3,4", "nat"),
    _pair("ap-even", "ap:4,6", "nat"),
    _pair("binary", "pow:2", "nat"),
    _pair("ternary", "pow:3", "nat"),
    _pair("dexp-self", "dexp:2", "zero|dexp:2"),
    _pair("dexp-nat", "dexp:2", "nat"),
    _pair("distinct", "all", "finite:0,1"),
    _pair("mult-2-3", "all", "zero|finite:2,3"),
    _pair("binary-selfmult", "pow:2", "zero|pow:2"),
    _pair("ap-both", "ap:2,3", "zero|ap:1,2"),
    _pair("sparse-parts", construct_sparse_set(BUILTIN_EPSILON_TABLE), "nat"),
    _pair("sparse-mults", "all", "zero|finite:2,5,11"),
)

CORPUS_BY_LABEL = {pair.label: pair for pair in CORPUS}
