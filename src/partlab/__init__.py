"""Exact counting and bound verification for partitions with restricted
parts and multiplicities.

The public names are resolved on first use (PEP 562), so `import partlab`
loads no submodule; `bounds`, `suites` and mpmath load only when one of
their names is asked for.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it provides; the one list of the package's surface
_EXPORTS = {
    "setspec": (
        "ALL_PARTS",
        "NAT_MULTS",
        "ArithmeticProgression",
        "DoublyExponential",
        "Finite",
        "IntegerSetSpec",
        "InvalidSetError",
        "Powers",
        "SetSpecError",
        "SpecSyntaxError",
        "WithZero",
        "construct_sparse_set",
        "parse_set_spec",
    ),
    "arith": (
        "coprime_prefix",
        "eventually_strictly_increasing",
        "frobenius_threshold",
        "gcd_of_set",
    ),
    "counting": (
        "KERNEL_BACKEND",
        "CountTable",
        "brute_force_count",
        "count_partitions",
        "count_support",
        "count_table",
        "pentagonal_table",
    ),
    "bounds": (
        "bound_report",
        "check_existence_lower_bound",
        "padberg_lower",
        "schur_asymptotic",
        "schur_style_point_lower",
    ),
    "suites": ("SUITES", "SuiteResult", "run_all", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
