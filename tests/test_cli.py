"""Command-line interface: exit codes, output formats, file round trips.

Everything runs in-process through main(argv) so coverage tools see it and
the suite stays fast.
"""

import csv
import hashlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partlab import cli, counting, setspec, suites
from partlab.bounds import BOUND_IDS
from partlab.cli import MAX_N, main
import peak
from test_counting import _dense

NON_UTF8 = bytes([0xFF, 0xFE, 0x00, 0x01])

# SHA-256 of `table --parts P --upto 60 --bounds <every id> --format csv`,
# recorded from the per-n bound evaluation that computed every table-wide
# fact (prefix sums, records, H_n, products) afresh at each n.
ALL_BOUNDS_CSV_SHA256 = {
    "all": "28e81e34d7e323ba80f9e3e3294ee658210a824a32e82bd9b8139b2e5c152511",
    "finite:2,3": "4568c0d35dbbe28a3f482104fcc27e8232d6e696edb576672911bc6088c4dd03",
    "pow:2": "0dca194829c22ce685c26f2856131b640ec9d923e4d2b10f4cf5e9d1f5ba7dfc",
}

# The same at --upto 750, recorded while harmonic_chain was certified as
# p(n) / n^A(n) <= e^(H_n).  For `all`, n^A(n) reaches 750^750, which an
# enclosure of the whole bound n^A(n) e^(H_n) must carry without changing
# a verdict; the upto-60 pins never get near that magnitude.
ALL_BOUNDS_CSV_750_SHA256 = {
    "all": "ed7ea4db3a764c430fabbef0b26c6e4b621b0a41b7a1f9417495c8f83821a072",
    "pow:2": "df486894ded08a6c0d1ccd4c61f8bb624045af7d10c22fa988d659f0df9d0d86",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "count", "--parts", "all", "--n", "5")
        assert code == 0
        assert out == "7\n"

    def test_syntax_error_is_one(self, capsys):
        code, _, err = run(capsys, "count", "--parts", "fnite:2,3", "--n", "5")
        assert code == 1
        assert "error" in err

    def test_semantic_error_is_two(self, capsys):
        # 0 cannot be a part
        code, _, err = run(capsys, "count", "--parts", "finite:0,3", "--n", "5")
        assert code == 2
        assert "invalid set" in err

    def test_nested_zero_is_two(self, capsys):
        # 5000 levels once ended in a RecursionError traceback
        mults = "zero|" * 5000 + "all"
        code, out, err = run(capsys, "count", "--parts", "all", "--mults", mults, "--n", "5")
        assert code == 2
        assert out == ""
        assert err == "partlab: invalid set: inner set of zero| already contains 0\n"

    def test_mults_missing_zero_is_two(self, capsys):
        code, _, _ = run(
            capsys, "count", "--parts", "all", "--mults", "finite:1,2", "--n", "5"
        )
        assert code == 2

    @pytest.mark.parametrize("spec", ["finite:\u00b2", "finite:\u0663,4"])
    def test_non_ascii_digit_is_one(self, capsys, spec):
        code, out, err = run(capsys, "count", "--parts", spec, "--n", "5")
        assert code == 1
        assert out == ""
        assert "expected an integer" in err

    # a digit run past int()'s 4300-digit limit is a syntax error
    @pytest.mark.parametrize("spec", ["finite:", "finite:2,", "pow:", "ap:1,"])
    def test_overlong_spec_integer_is_one(self, capsys, spec):
        code, out, err = run(capsys, "count", "--parts", spec + "9" * 5000, "--n", "5")
        assert code == 1
        assert out == ""
        assert err == (
            f"partlab: error: integer of 5000 digits is too long (at position {len(spec)})\n"
        )

    def test_unknown_bound_id_is_one(self, capsys):
        code, _, err = run(
            capsys, "table", "--parts", "all", "--upto", "5", "--bounds", "bogus"
        )
        assert code == 1
        assert "unknown bound id" in err

    def test_unknown_suite_is_one(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "bogus")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--parts", "all", "--n", "5"),
            ("table", "--parts", "pow:2", "--upto", "4", "--bounds", "debruijn_upper"),
            ("verify", "--suite", "eq10"),
        ],
        ids=["count", "table", "verify"],
    )
    def test_precision_is_not_an_option(self, capsys, argv):
        # the working precision is fixed: values are shown at 12 digits and
        # certification escalates by itself
        code, out, err = run(capsys, *argv, "--precision", "50")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --precision 50" in err
        assert "Traceback" not in err

    def test_negative_n_is_one(self, capsys):
        code, _, _ = run(capsys, "count", "--parts", "all", "--n", "-3")
        assert code == 1

    @pytest.mark.parametrize(
        "text",
        ["\u0661\u0660", "1_0", "+10", " 10", "\u00b2",
         pytest.param("9" * 5000, id="5000-digits")],
    )
    @pytest.mark.parametrize("flag", ["--n", "--upto"])
    def test_size_takes_ascii_digits_only(self, capsys, flag, text):
        # the rule of the spec language: finite:\u0661\u0660 is refused as well
        command = "count" if flag == "--n" else "table"
        code, out, err = run(capsys, command, "--parts", "all", flag, text)
        assert code == 1
        assert out == ""
        assert f"argument {flag}: invalid size value" in err

    @pytest.mark.parametrize("argv", [("verify", "--suite", "eq4"), ("verify", "--list"),
                                      ("sparse", "EPS")], ids=["verify", "list", "sparse"])
    def test_csv_is_not_a_format_of_verify_or_sparse(self, capsys, tmp_path, argv):
        eps = tmp_path / "eps.txt"
        eps.write_text("4 1\n16 2\n")
        argv = [str(eps) if a == "EPS" else a for a in argv]
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 1
        assert out == ""
        assert "argument --format: invalid choice: 'csv'" in err

    @pytest.mark.parametrize("size", [MAX_N + 1, 10**19])
    @pytest.mark.parametrize(
        "command,flag", [("count", "--n"), ("table", "--upto"), ("explore", "--upto")]
    )
    def test_size_above_ceiling_is_one_before_any_table(
        self, capsys, monkeypatch, command, flag, size
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(cli, "count_table", refuse)
        monkeypatch.setattr(counting, "count_table", refuse)
        code, out, err = run(capsys, command, "--parts", "all", flag, str(size))
        assert code == 1
        assert out == ""
        assert f"argument {flag}: must be between 0 and {MAX_N}" in err

    def test_ceiling_admits_the_largest_benchmarked_count(self):
        assert MAX_N >= 2**20

    def test_missing_subcommand_is_one(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_flag_is_one(self, capsys):
        code, _, _ = run(capsys, "count", "--parts", "all", "--n", "5", "--nope")
        assert code == 1


class TestCount:
    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "count", "--parts", "pow:2", "--n", "16", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "count": "36",
            "mults": "nat",
            "n": 16,
            "parts": "pow:2",
        }

    def test_csv(self, capsys):
        _, out, _ = run(
            capsys, "count", "--parts", "all", "--n", "10", "--format", "csv"
        )
        assert out == "n,count\n10,42\n"

    def test_restricted_mults(self, capsys):
        # distinct parts of 10
        _, out, _ = run(
            capsys, "count", "--parts", "all", "--mults", "zero|finite:1", "--n", "10"
        )
        assert out == "10\n"


class TestTable:
    def test_csv_counts(self, capsys):
        _, out, _ = run(
            capsys,
            "table", "--parts", "finite:2,3", "--upto", "6", "--format", "csv",
        )
        lines = out.strip().split("\n")
        assert lines[0] == "n,count"
        assert [l.split(",")[1] for l in lines[1:]] == [
            "1", "0", "1", "1", "1", "1", "2",
        ]

    def test_csv_bound_column_and_gaps(self, capsys):
        _, out, _ = run(
            capsys,
            "table", "--parts", "pow:2", "--upto", "4",
            "--bounds", "debruijn_upper", "--format", "csv",
        )
        lines = out.strip().split("\n")
        assert lines[0] == "n,count,debruijn_upper"
        # odd n leave the column empty; the bound covers even n only
        assert lines[2].startswith("1,1,") and lines[2].endswith(",")
        assert lines[3].split(",")[2] != ""

    def test_upto_zero_single_row(self, capsys):
        _, out, _ = run(
            capsys, "table", "--parts", "all", "--upto", "0", "--format", "csv"
        )
        assert out == "n,count\n0,1\n"

    def test_json_entries(self, capsys):
        _, out, _ = run(
            capsys,
            "table", "--parts", "all", "--upto", "3",
            "--bounds", "product_upper", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["parts"] == "all"
        rows = payload["rows"]
        assert [r["count"] for r in rows] == ["1", "1", "2", "3"]
        assert rows[3]["bounds"]["product_upper"]["satisfied"] is True

    @pytest.mark.parametrize("parts", sorted(ALL_BOUNDS_CSV_SHA256))
    def test_all_bound_columns_snapshot(self, capsys, parts):
        code, out, _ = run(
            capsys,
            "table", "--parts", parts, "--upto", "60",
            "--bounds", ",".join(BOUND_IDS), "--format", "csv",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ALL_BOUNDS_CSV_SHA256[parts]

    @pytest.mark.parametrize("parts", sorted(ALL_BOUNDS_CSV_750_SHA256))
    def test_all_bound_columns_snapshot_to_750(self, capsys, parts):
        code, out, _ = run(
            capsys,
            "table", "--parts", parts, "--upto", "750",
            "--bounds", ",".join(BOUND_IDS), "--format", "csv",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ALL_BOUNDS_CSV_750_SHA256[parts]

    def test_zero_only_multiplicities(self, capsys):
        # multiplicity set {0}: only the empty partition, and a product ceiling of 1
        code, out, _ = run(
            capsys,
            "table", "--parts", "all", "--mults", "finite:0", "--upto", "5",
            "--bounds", "product_upper", "--format", "csv",
        )
        assert code == 0
        assert out == "n,count,product_upper\n0,1,1\n1,0,1\n2,0,1\n3,0,1\n4,0,1\n5,0,1\n"

    def test_human_dash_for_inapplicable(self, capsys):
        _, out, _ = run(
            capsys,
            "table", "--parts", "finite:2,3", "--upto", "7", "--bounds", "eq10",
        )
        assert "-" in out


class TestAnalyze:
    def test_chicken_mcnugget_set(self, capsys):
        code, out, _ = run(capsys, "analyze", "--parts", "finite:6,10,15")
        assert code == 0
        assert "gcd: 1" in out
        assert "gcd trace 6,2,1" in out
        assert "frobenius-threshold: 30" in out
        assert "eventually-strictly-increasing: no" in out

    def test_gcd_two_progression(self, capsys):
        _, out, _ = run(capsys, "analyze", "--parts", "ap:4,6")
        assert "gcd: 2" in out

    def test_strictly_increasing_yes(self, capsys):
        _, out, _ = run(capsys, "analyze", "--parts", "finite:3,4,5")
        assert "eventually-strictly-increasing: yes" in out

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--parts", "finite:6,10,15", "--format", "csv"
        )
        assert code == 0
        assert out == (
            "key,value\n"
            "coprime_prefix,prefix 6 10 15\n"
            "eventually_positive,true\n"
            "frobenius_threshold,30\n"
            "gcd,1\n"
            'parts,"finite:6,10,15"\n'
            "strictly_increasing,false\n"
        )

    def test_csv_without_coprime_facts(self, capsys):
        _, out, _ = run(capsys, "analyze", "--parts", "ap:4,6", "--format", "csv")
        assert out == 'key,value\neventually_positive,false\ngcd,2\nparts,"ap:4,6"\n'

    def test_json(self, capsys):
        _, out, _ = run(
            capsys, "analyze", "--parts", "finite:6,10,15", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["gcd"] == 1
        assert payload["coprime_prefix"]["gcd_trace"] == [6, 2, 1]
        assert payload["frobenius_threshold"] == 30
        assert payload["strictly_increasing"] is False

    @pytest.mark.parametrize(
        "parts",
        ["finite:1000000000,1000000001", "finite:100000,100001", f"finite:2,{MAX_N + 1}"],
    )
    def test_frobenius_scan_past_the_ceiling_is_one(self, capsys, monkeypatch, parts):
        # Schur's horizon (a_1 - 1)(a_k - 1) + a_1 exceeds MAX_N: refused
        # before the scan, whose int would hold a bit for every n up to it
        def no_scan(cset):
            raise AssertionError("scan started")

        monkeypatch.setattr(cli, "frobenius_threshold", no_scan)
        code, out, err = run(capsys, "analyze", "--parts", parts)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and f"passes the limit {MAX_N}" in err

    def test_frobenius_scan_at_the_ceiling_runs(self, capsys):
        # horizon (2 - 1)(MAX_N - 2) + 2 = MAX_N, scanned in milliseconds
        code, out, _ = run(capsys, "analyze", "--parts", f"finite:2,{MAX_N - 1}")
        assert code == 0
        assert f"frobenius-threshold: {MAX_N - 2}" in out


class TestVerify:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "verify", "--list")
        assert code == 0
        for name in ("eq4", "eq5", "schur", "slow-growth", "sparse-construction"):
            assert name in out

    @pytest.mark.parametrize(
        "extra", [("--format", "json"), ("--suite", "nope"), ("--suite", "eq4")]
    )
    def test_list_takes_no_suite_or_json(self, capsys, monkeypatch, extra):
        monkeypatch.setitem(suites.SUITES, "eq4", (None, "must not run", ""))
        code, out, err = run(capsys, "verify", "--list", *extra)
        assert code == 1
        assert out == ""
        assert err == "partlab: error: --list takes no --suite and no --format json\n"

    def test_single_suite_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "schur", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"suite", "cases", "failures", "onsets", "elapsed_ms"}
        assert payload["suite"] == "schur"
        assert payload["cases"] == 3
        assert payload["failures"] == []
        assert payload["elapsed_ms"] == 0

    def test_single_suite_human(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "monotone-lb")
        assert code == 0
        assert "PASS" in out
        assert "cases=1200" in out

    def test_human_failures_truncated(self, capsys, monkeypatch):
        # a planted suite with more failures than the human report lists
        def planted(res):
            res.onsets["x"], res.extras["k"] = 5, "v"
            for n in range(23):
                res.check(False, lambda: ({"label": "p", "n": n}, f"<= {n}", str(n + 1)))
            res.check(True, lambda: ({"n": 23}, "", ""))

        monkeypatch.setitem(suites.SUITES, "planted", (planted, "planted", "none"))
        code, out, _ = run(capsys, "verify", "--suite", "planted")
        assert code == 3
        head, *rest = out.split("\n")
        assert re.fullmatch(r"suite planted: FAIL \(23 failures\)  cases=24  \d+ ms", head)
        assert rest == [
            "  onset x: 5",
            "  k: v",
            *(f"  FAIL label=p n={n}: expected <= {n}, got {n + 1}" for n in range(20)),
            "  ... 3 more",
            "",
        ]


class TestExplore:
    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "explore", "--parts", "finite:3,5", "--upto", "20", "--format", "csv"
        )
        assert code == 0
        assert out == "key,value\nzero_count,4\nmax_count,2\nmax_index,15\nslope,0.7171\n"

    def test_csv_slope_not_estimable(self, capsys):
        _, out, _ = run(
            capsys, "explore", "--parts", "finite:5", "--upto", "3", "--format", "csv"
        )
        assert out == "key,value\nzero_count,3\nmax_count,1\nmax_index,0\nslope,\n"

    def test_zero_pattern(self, capsys):
        code, out, _ = run(
            capsys, "explore", "--parts", "finite:3,5", "--upto", "20"
        )
        assert code == 0
        assert "zero" in out.lower()

    def test_json_summary(self, capsys):
        _, out, _ = run(
            capsys,
            "explore", "--parts", "all", "--upto", "100", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["max_index"] == 100
        assert payload["max_count"] == "190569292"
        assert payload["zeros"] == [] and payload["zero_count"] == 0

    def test_thin_pair_reads_the_support(self, capsys, monkeypatch):
        # dexp:2 with zero|dexp:2 to MAX_N: 2163 nonzero entries, and no row
        def no_table(*args, **kwargs):
            raise AssertionError("a row was built")

        monkeypatch.setattr(counting, "_row", no_table)
        monkeypatch.setattr(counting, "count_table", no_table)
        monkeypatch.setattr(cli, "count_table", no_table)
        argv = ("explore", "--parts", "dexp:2", "--mults", "zero|dexp:2", "--upto", str(MAX_N))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (
            "p(n) = 0 at 2094990 of 2097152 positive n\n"
            "zeros: 1,2,3,5,6,7,9,10,11,13,14,15,17,18,19 ... (2094975 more)\n"
            "max count: 13 at n=263232\n"
            "log-log slope over upper half: -0.2851\n"
        )
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "75a5b2408be6aba370b9ab61248696a6a8da407f82862afbc71fa19a8cf93896"
        )

    @settings(max_examples=60, deadline=None)
    @given(
        parts=st.one_of(
            st.sampled_from(["dexp:2", "dexp:3", "pow:2", "pow:3", "finite:2"]),
            st.lists(st.integers(1, 400), min_size=1, max_size=3, unique=True).map(
                lambda xs: "finite:" + ",".join(map(str, sorted(xs)))
            ),
        ),
        mults=st.one_of(
            st.sampled_from(["dexp:2", "pow:2", "pow:3", "finite:1"]),
            st.lists(st.integers(1, 60), min_size=1, max_size=3, unique=True).map(
                lambda xs: "finite:" + ",".join(map(str, sorted(xs)))
            ),
        ).map(lambda spec: "zero|" + spec),
        upto=st.integers(0, 3000),
        fmt=st.sampled_from(["table", "csv", "json"]),
    )
    def test_support_summary_matches_the_row(self, parts, mults, upto, fmt):
        # the same report from a thin pair's support as from its whole row
        argv = ["explore", "--parts", parts, "--mults", mults, "--upto", str(upto),
                "--format", fmt]
        outputs = []
        for route in (cli.count_support, counting.count_table):
            out = io.StringIO()
            with pytest.MonkeyPatch.context() as mp, redirect_stdout(out):
                mp.setattr(cli, "count_support", route)
                assert main(argv) == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]

    @settings(max_examples=60, deadline=None)
    @given(
        pair=st.one_of(
            # dense: a row, with or without an identity behind it
            st.tuples(
                st.sampled_from(["all", "all-from:3", "finite:3,5", "ap:2,3", "pow:2"]),
                st.just("nat"),
            ),
            st.tuples(
                st.lists(st.integers(1, 400), min_size=1, max_size=3, unique=True).map(
                    lambda xs: "finite:" + ",".join(map(str, sorted(xs)))
                ),
                st.sampled_from(["nat", "zero|finite:1", "zero|ap:1,2"]),
            ),
            # thin: the support's nonzero entries
            st.tuples(
                st.sampled_from(["dexp:2", "dexp:3", "pow:3"]),
                st.sampled_from(["zero|dexp:2", "zero|pow:2", "zero|finite:1"]),
            ),
        ),
        upto=st.integers(0, 3000),
    )
    def test_slope_matches_the_dense_oracle(self, pair, upto):
        parts, mults = pair
        values = _dense(upto, setspec.parse_set_spec(parts, "parts"),
                        setspec.parse_set_spec(mults, "mults"))
        points = [(math.log(n), math.log(values[n]))
                  for n in range(max(2, upto // 2), upto + 1) if values[n]]
        want = ""
        if len(points) >= 2:
            slope, _ = statistics.linear_regression([x for x, _ in points], [y for _, y in points])
            want = f"{slope:.4f}"
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["explore", "--parts", parts, "--mults", mults,
                         "--upto", str(upto), "--format", "csv"]) == 0
        assert dict(csv.reader(io.StringIO(out.getvalue())))["slope"] == want

    @settings(max_examples=60, deadline=None)
    @given(
        # keys without a z sort before "zeros"; 0-9000 items cross the
        # 4096-item chunks, and the empty list is written as []
        obj=st.dictionaries(
            st.text("_abcdefghijklmnopqrstuvwxy", min_size=1, max_size=8),
            st.one_of(st.none(), st.integers(), st.text(max_size=5)),
            min_size=1,
            max_size=4,
        ),
        items=st.one_of(
            st.lists(st.integers(), max_size=20),
            st.integers(0, 9000).map(lambda k: list(range(k))),
        ),
    )
    def test_json_with_list_is_json_dumps(self, obj, items):
        chunks = cli._json_with_list(obj, "zeros", iter(items))
        want = json.dumps({**obj, "zeros": items}, sort_keys=True, indent=2) + "\n"
        assert "".join(chunks) == want

    @settings(max_examples=40, deadline=None)
    @given(
        pair=st.one_of(
            st.tuples(st.sampled_from(["all", "finite:3,5", "ap:2,3"]), st.just("nat")),
            st.tuples(
                st.sampled_from(["dexp:2", "dexp:3", "pow:3"]),
                st.sampled_from(["zero|dexp:2", "zero|pow:2", "zero|finite:1"]),
            ),
        ),
        upto=st.integers(0, 3000),
        to_file=st.booleans(),
    )
    def test_json_zeros_are_written_as_json_dumps(self, tmp_path_factory, pair, upto, to_file):
        parts, mults = pair
        argv = ["explore", "--parts", parts, "--mults", mults, "--upto", str(upto),
                "--format", "json"]
        if to_file:
            target = tmp_path_factory.mktemp("explore") / "out.json"
            assert _output(*argv, "--out", str(target)) == ""
            text = target.read_text()
        else:
            text = _output(*argv)
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        values = _dense(upto, setspec.parse_set_spec(parts, "parts"),
                        setspec.parse_set_spec(mults, "mults"))
        assert doc["zeros"] == [n for n, v in enumerate(values) if not v]

    # on a dense pair, upto = 2 leaves the one point n = 2 and upto = 3 the
    # two points n = 2, 3, where p(n) = n makes the slope exactly 1
    @pytest.mark.parametrize("upto,slope", [(2, ""), (3, "1.0000")])
    def test_slope_from_one_and_two_points(self, capsys, upto, slope):
        _, out, _ = run(capsys, "explore", "--parts", "all", "--upto", str(upto), "--format", "csv")
        assert out.endswith(f"\nslope,{slope}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--parts", "finite:6,10,15", "--n", "45"),
        ("table", "--parts", "finite:2,3", "--upto", "30", "--bounds", ",".join(BOUND_IDS)),
        ("analyze", "--parts", "finite:6,10,15"),
        ("analyze", "--parts", "ap:4,6"),
        ("explore", "--parts", "finite:3,5", "--upto", "20"),
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_csv_rows_have_the_header_field_count(capsys, argv):
    # a spec such as finite:6,10,15 in a cell must stay one field
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert rows
    assert all(len(row) == len(header) for row in rows)


class TestSparse:
    def test_round_trip(self, capsys, tmp_path):
        table = tmp_path / "eps.txt"
        table.write_text("# threshold value\n4 1\n16 2\n256 3\n65536 4\n")
        anchors = tmp_path / "anchors.txt"
        code, _, _ = run(capsys, "sparse", str(table), "--out", str(anchors))
        assert code == 0
        listed = [
            int(line) for line in anchors.read_text().split() if line.isdigit()
        ]
        assert listed == [16, 256, 65536]
        code, out, _ = run(
            capsys,
            "count", "--parts", f"sparse:@{anchors}", "--n", "272",
        )
        assert code == 0
        assert out == "2\n"  # 272 = 16 + 256 and 16 * 17

    def test_json_to_stdout(self, capsys, tmp_path):
        table = tmp_path / "eps.txt"
        table.write_text("4 1\n16 2\n256 3\n")
        code, out, _ = run(capsys, "sparse", str(table), "--format", "json")
        assert code == 0
        assert out == '{\n  "anchors": [\n    16,\n    256\n  ],\n  "out": null\n}\n'

    def test_json_with_out(self, capsys, tmp_path):
        table = tmp_path / "eps.txt"
        table.write_text("4 1\n16 2\n256 3\n")
        anchors = tmp_path / "anchors.txt"
        code, out, _ = run(
            capsys, "sparse", str(table), "--format", "json", "--out", str(anchors)
        )
        assert code == 0
        assert out == (
            '{\n  "anchors": [\n    16,\n    256\n  ],\n'
            f'  "out": "{anchors}",\n  "spec": "sparse:@{anchors}"\n}}\n'
        )
        assert anchors.read_text() == "16\n256\n"

    def test_wrong_field_count_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("4 1\n16 2 7\n")
        code, out, err = run(capsys, "sparse", str(bad))
        assert code == 1
        assert out == ""
        assert err == (
            f"partlab: error: {bad}:2: expected 'threshold value', got '16 2 7'\n"
        )

    def test_malformed_line_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("4 one\n")
        assert run(capsys, "sparse", str(bad))[0] == 1

    @pytest.mark.parametrize("line", ["\u0661\u0666 2", "1_6 2", "+16 2", "16 \u0662", "16 +2"])
    def test_fields_take_ascii_digits_only(self, capsys, tmp_path, line):
        # int() would read each of these as threshold 16, value 2
        bad = tmp_path / "bad.txt"
        bad.write_text(f"4 1\n{line}\n", encoding="utf-8")
        code, out, err = run(capsys, "sparse", str(bad))
        assert code == 1
        assert out == ""
        assert err == f"partlab: error: {bad}:2: expected integers, got {line!r}\n"

    def test_decreasing_values_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("4 2\n16 1\n")
        assert run(capsys, "sparse", str(bad))[0] == 2

    def test_missing_file_is_one(self, capsys, tmp_path):
        assert run(capsys, "sparse", str(tmp_path / "nope.txt"))[0] == 1

    def test_non_utf8_file_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(NON_UTF8)
        code, out, err = run(capsys, "sparse", str(bad))
        assert code == 1
        assert out == ""
        assert "cannot read" in err

    def test_non_ascii_anchor_line_is_two(self, capsys, tmp_path):
        bad = tmp_path / "anchors.txt"
        bad.write_text("\u0661\u0666\n", encoding="utf-8")
        code, out, err = run(capsys, "count", "--parts", f"sparse:@{bad}", "--n", "16")
        assert code == 2
        assert out == ""
        assert "must hold one integer per line" in err

    def test_non_utf8_anchors_file_is_two(self, capsys, tmp_path):
        bad = tmp_path / "anchors.txt"
        bad.write_bytes(NON_UTF8)
        code, out, err = run(capsys, "count", "--parts", f"sparse:@{bad}", "--n", "5")
        assert code == 2
        assert out == ""
        assert "cannot read anchors file" in err

    @pytest.mark.parametrize(
        "argv,code",
        [(("count", "--parts", "sparse:@FILE", "--n", "5"), 2), (("sparse", "FILE"), 1)],
        ids=["anchors", "epsilon"],
    )
    def test_file_over_the_cap_is_one_line(self, capsys, monkeypatch, tmp_path, argv, code):
        # one reader serves both files: 8 bytes are read, 9 are refused
        monkeypatch.setattr(setspec, "MAX_FILE_BYTES", 8)
        path = tmp_path / "file.txt"
        argv = [a.replace("FILE", str(path)) for a in argv]
        at_cap = "2\n3\n5\n7\n" if argv[0] == "count" else "4 1\n16 2"
        path.write_text(at_cap)
        assert run(capsys, *argv)[0] == 0
        path.write_text(at_cap + "9")
        got, out, err = run(capsys, *argv)
        assert got == code
        assert out == ""
        assert err.count("\n") == 1
        assert f"cannot read {'anchors file ' * (code == 2)}{path}: more than 8 bytes" in err

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    @pytest.mark.parametrize(
        "argv,code",
        [(("count", "--parts", "sparse:@/dev/zero", "--n", "5"), 2), (("sparse", "/dev/zero"), 1)],
        ids=["anchors", "epsilon"],
    )
    def test_endless_file_is_one_line(self, capsys, argv, code):
        # read up to the cap and refused, instead of filling memory
        got, out, err = run(capsys, *argv)
        assert got == code
        assert out == ""
        assert err.count("\n") == 1 and "more than" in err

    @pytest.mark.skipif(os.name != "posix", reason="the launcher reads rusage")
    def test_anchors_file_is_parsed_as_it_is_read(self, tmp_path):
        # 2^19 seven-digit anchors (4 MiB): the lines are parsed one at a
        # time, so the child's peak holds the ints, not a list of lines
        path = tmp_path / "anchors.txt"
        path.write_text("".join(f"{10**6 + 4 * i}\n" for i in range(2**19)))
        src = os.path.dirname(os.path.dirname(setspec.__file__))
        argv = [sys.executable, "-m", "partlab.cli", "count", "--parts", f"sparse:@{path}", "--n", "5"]
        got = peak.run(argv, env=dict(os.environ, PYTHONPATH=src))
        assert (got["exit"], got["out"]) == (0, "0\n")
        assert got["peak_mb"] < 90, got["peak_mb"]


# Holds 150 MB, then runs `python -c argv[1]` twice, as its own child and
# under a fresh launcher, and prints both reports
_BALLAST = """import json, sys, peak
ballast = b"x" * (150 << 20)
argv = [sys.executable, "-c", sys.argv[1]]
print(json.dumps([peak.measure(argv), peak.run(argv)]))
"""


@pytest.mark.skipif(os.name != "posix", reason="the launcher reads rusage")
@pytest.mark.parametrize("code,status", [("pass", 0), ("raise SystemExit(3)", 3)])
def test_launcher_reads_its_commands_own_peak(code, status):
    # the ballast lives in a helper child, never in this process
    helper = [sys.executable, "-c", _BALLAST, code]
    out = subprocess.check_output(helper, cwd=os.path.dirname(peak.__file__), text=True)
    direct, launched = json.loads(out)
    assert (direct["exit"], launched["exit"], launched["out"]) == (status, status, "")
    assert direct["peak_mb"] >= 150 and launched["peak_mb"] < 40, (direct, launched)


class TestOutFile:
    def test_count_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run(
            capsys, "count", "--parts", "all", "--n", "5", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "7\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--parts", "all", "--n", "5"),
            ("table", "--parts", "finite:2,3", "--upto", "5"),
            ("sparse", "EPS"),
        ],
        ids=["count", "table", "sparse"],
    )
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_is_one(self, capsys, tmp_path, argv, target):
        eps = tmp_path / "eps.txt"
        eps.write_text("4 1\n16 2\n")
        argv = [str(eps) if a == "EPS" else a for a in argv]
        out_path = tmp_path / "missing" / "x" if target == "missing-dir" else tmp_path
        code, out, err = run(capsys, *argv, "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert f"cannot write {out_path}" in err


# -- a finite set gives the same output however it is written ---------------

def _output(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def test_sparse_spelling_of_finite_2_3_matches_the_snapshot(capsys, tmp_path):
    anchors = tmp_path / "anchors.txt"
    anchors.write_text("2\n3\n")
    code, out, _ = run(
        capsys,
        "table", "--parts", f"sparse:@{anchors}", "--upto", "60",
        "--bounds", ",".join(BOUND_IDS), "--format", "csv",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_BOUNDS_CSV_SHA256["finite:2,3"]


@settings(max_examples=25, deadline=None)
@given(
    elements=st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True).map(sorted),
    upto=st.integers(0, 40),
)
def test_finite_and_sparse_spellings_agree(tmp_path_factory, elements, upto):
    anchors = tmp_path_factory.mktemp("sparse") / "anchors.txt"
    anchors.write_text("".join(f"{e}\n" for e in elements))
    spellings = ("finite:" + ",".join(map(str, elements)), f"sparse:@{anchors}")
    tables = [
        _output("table", "--parts", parts, "--upto", str(upto),
                "--bounds", ",".join(BOUND_IDS), "--format", "csv")
        for parts in spellings
    ]
    assert tables[0] == tables[1]
    analyses = [_output("analyze", "--parts", parts).split("\n") for parts in spellings]
    assert [lines[0] for lines in analyses] == [f"parts: {p}" for p in spellings]
    assert analyses[0][1:] == analyses[1][1:]


# -- a progression gives the same output however it is written --------------

@pytest.mark.parametrize("k", range(1, 7))
def test_ap_and_all_from_spellings_agree(k):
    tables = [
        _output("table", "--parts", parts, "--upto", "60",
                "--bounds", ",".join(BOUND_IDS), "--format", "csv")
        for parts in (f"ap:{k},1", f"all-from:{k}", *(("all",) if k == 1 else ()))
    ]
    assert len(set(tables)) == 1


@pytest.mark.parametrize("parts", ["all", "finite:2,3", "pow:2"])
def test_zero_ap_1_1_is_nat(parts):
    for argv in (
        ("table", "--parts", parts, "--upto", "60", "--bounds", ",".join(BOUND_IDS), "--format", "csv"),
        ("count", "--parts", parts, "--n", "60", "--format", "json"),
    ):
        assert _output(*argv, "--mults", "zero|ap:1,1") == _output(*argv, "--mults", "nat")


# -- the contract on generated argv: exit 0/1/2/3, never an exception --------

# Each {} is an integer slot.  The large finite: pairs put Schur's horizon
# for analyze's Frobenius scan far past MAX_N.
_PARTS = [
    "all", "finite:{},{}", "finite:6,10,15", "pow:{}", "dexp:2", "ap:{},{}",
    "all-from:{}", "sparse:@ANCHORS", "finite:{}000000,{}000001",
]
_MULTS = ["nat", "finite:0,{}", "zero|finite:{}", "zero|dexp:2", "zero|pow:{}"]
_BAD_SPECS = [
    "", "fnite:2,3", "finite:", "finite:1,,2", "finite:0,3", "finite:1,2",
    "finite:\u00b2", "ap:3", "ap:0,1", "pow:1", "dexp:0", "all-from:0",
    "zero|", "zero|nat", "all2", "sparse:@", "sparse:@MISSING",
    "sparse:@NON_UTF8", "sparse:@OVER_CAP",
]
# Integer text the program refuses: a digit run past int()'s 4300-digit
# limit, and decimal digits other than ASCII (which int() would read).
_OVERLONG = st.integers(4301, 4400).map(lambda k: "9" * k)
_OTHER_DIGITS = st.text(
    st.characters(categories=["Nd"], exclude_characters="0123456789"), min_size=1, max_size=3
)


@st.composite
def _argv(draw):
    """argv over a small vocabulary, and the anchors and epsilon files it
    may name.  Each argument is only now and then malformed or left out,
    so that many runs get past the parser."""

    def odd_one_out():
        return draw(st.integers(0, 4)) == 4

    def pick(good, bad):
        return draw(st.sampled_from(bad if odd_one_out() else good))

    def slot(value):
        """An integer slot holding value, once in ten times a bad integer."""
        if draw(st.integers(0, 9)) == 9:
            return draw(_OVERLONG | _OTHER_DIGITS | st.sampled_from(["-1", "+1", "1_0"]))
        return str(value)

    def spec(good):
        template = pick(good, _BAD_SPECS)
        slots = [slot(draw(st.integers(1, 12))) for _ in range(template.count("{}"))]
        return template.format(*slots)

    def size():
        if odd_one_out():
            return draw(st.sampled_from(["-1", "", "x", "1e3"]) | _OVERLONG | _OTHER_DIGITS)
        return str(draw(st.integers(0, 200)))

    def ascending():
        return sorted(draw(st.lists(st.integers(1, 300), min_size=1, max_size=3, unique=True)))

    command = draw(
        st.sampled_from(["count", "table", "analyze", "verify", "explore", "sparse"])
    )
    argv = [command]
    if command == "verify":
        argv.append("--list")
    elif command == "sparse":
        argv.append(pick(["EPS"], ["BAD_EPS", "MISSING", "NON_UTF8", "OVER_CAP"]))
    elif not odd_one_out():
        argv += ["--parts", spec(_PARTS)]
    if command in ("count", "table", "explore") and draw(st.booleans()):
        argv += ["--mults", spec(_MULTS)]
    if command == "count" and not odd_one_out():
        argv += ["--n", size()]
    if command in ("table", "explore") and not odd_one_out():
        argv += ["--upto", size()]
    if command == "table" and draw(st.booleans()):
        ids = draw(st.lists(st.sampled_from(BOUND_IDS), min_size=1, max_size=3))
        argv += ["--bounds", ",".join(ids + ["bogus"] * odd_one_out())]
    if odd_one_out():
        argv += ["--precision", str(draw(st.integers(0, 80)))]
    if draw(st.booleans()):
        argv += ["--format", pick(["table", "csv", "json"], ["xml"])]
    if draw(st.booleans()):
        argv += ["--out", pick(["WRITABLE"], ["MISSING_DIR", "DIRECTORY"])]
    def values(k):
        """1..k, the last now and then asking for more than 2^21 anchors."""
        last = draw(st.integers(2**21 + 2, 10**12)) if odd_one_out() else k
        return [*range(1, k), last]

    thresholds = ascending()
    files = {
        "ANCHORS": "".join(f"{slot(a)}\n" for a in ascending()),
        "EPS": "".join(
            f"{slot(t)} {slot(v)}\n" for t, v in zip(thresholds, values(len(thresholds)))
        ),
    }
    return argv, files


@pytest.fixture(scope="module")
def contract_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    (root / "non_utf8.txt").write_bytes(NON_UTF8)
    (root / "bad_eps.txt").write_text("4 one\n")
    with open(root / "over_cap.txt", "wb") as fh:  # one byte over; truncate writes no data
        fh.truncate(setspec.MAX_FILE_BYTES + 1)
    return {
        "ANCHORS": root / "anchors.txt",
        "NON_UTF8": root / "non_utf8.txt",
        "MISSING": root / "missing.txt",
        "EPS": root / "eps.txt",
        "BAD_EPS": root / "bad_eps.txt",
        "OVER_CAP": root / "over_cap.txt",
        "WRITABLE": root / "out.txt",
        "MISSING_DIR": root / "missing" / "out.txt",
        "DIRECTORY": root,
    }


@settings(max_examples=150, deadline=None)
@given(case=_argv())
@example(case=(["count", "--parts", "sparse:@OVER_CAP", "--n", "5"], {}))
@example(case=(["sparse", "OVER_CAP"], {}))
@example(case=(["sparse", "EPS"], {"EPS": "1 1000000000\n"}))
@example(case=(["analyze", "--parts", "finite:1000000000,1000000001"], {}))
def test_cli_contract_on_generated_argv(contract_paths, case):
    argv, files = case
    for name, text in files.items():
        contract_paths[name].write_text(text, encoding="utf-8")

    def resolve(arg):
        for name, path in contract_paths.items():
            arg = arg.replace(f"@{name}", f"@{path}")
        return str(contract_paths.get(arg, arg))

    argv = [resolve(a) for a in argv]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
