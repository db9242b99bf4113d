import hashlib
import json

import pytest

from oracles import naive_stack_pass_traced
from stacksort import cli
from stacksort.cli import main
from stacksort.perms import parse_perm
from stacksort.verify import CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trace_plain(capsys):
    code, out, _ = run(capsys, "trace", "231", "2413")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "map[2 3 1](2 4 1 3) = 1 4 3 2"
    assert "push 2" in lines[1]
    assert len(lines) == 1 + 8 + 1  # header, eight events, result


def test_trace_single_element(capsys):
    code, out, _ = run(capsys, "trace", "21", "1")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("= 1")


def test_trace_json_round_trip(capsys):
    code, out, _ = run(capsys, "trace", "231", "2413", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["output"] == "1 4 3 2"
    forbidden, perm = parse_perm(payload["forbidden"]), parse_perm(payload["input"])
    events = [(e["op"], e["value"]) for e in payload["events"]]
    assert (parse_perm(payload["output"]), events) == naive_stack_pass_traced(forbidden, perm)


def test_trace_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "trace", "231", "24a3")
    assert code == 2
    assert "error" in err


def test_count_sortable_plain(capsys):
    code, out, _ = run(capsys, "count", "sortable", "--sigma", "231", "--max-n", "6")
    assert code == 0
    assert out.strip() == "1 2 6 23 102 496"


def test_count_requires_sigma(capsys):
    code, _, err = run(capsys, "count", "sortable", "--max-n", "4")
    assert code == 2
    assert "--sigma" in err


def test_count_formats_round_trip(capsys):
    _, plain, _ = run(capsys, "count", "sorted", "--sigma", "312", "--max-n", "5")
    values = [int(tok) for tok in plain.split()]
    assert values == [1, 2, 4, 8, 17]

    _, csv_out, _ = run(
        capsys, "count", "sorted", "--sigma", "312", "--max-n", "5", "--format", "csv"
    )
    rows = [line.split(",") for line in csv_out.strip().splitlines()]
    assert [int(c) for _, c in rows] == values
    assert [int(n) for n, _ in rows] == list(range(1, 6))

    _, bfile, _ = run(
        capsys, "count", "sorted", "--sigma", "312", "--max-n", "5", "--format", "bfile"
    )
    brows = [line.split() for line in bfile.strip().splitlines()]
    assert [int(c) for _, c in brows] == values

    _, js, _ = run(
        capsys, "count", "sorted", "--sigma", "312", "--max-n", "5", "--format", "json"
    )
    payload = json.loads(js)
    assert [d["count"] for d in payload] == values
    assert [d["n"] for d in payload] == list(range(1, 6))


def test_count_anchored132_formula_and_brute(capsys):
    code, out, _ = run(capsys, "count", "anchored132", "--max-n", "6")
    assert code == 0
    assert out.strip() == "1 2 5 17 75 407"
    # The exhaustive count is verify's THM 3.3 line; the --method switch is gone.
    with pytest.raises(SystemExit) as exc:
        main(["count", "anchored132", "--max-n", "3", "--method", "brute"])
    assert exc.value.code == 2


def test_guard_rail(capsys):
    code, _, err = run(capsys, "count", "sortable", "--sigma", "231", "--max-n", "12")
    assert code == 2
    assert "refusing" in err
    # formula path is exempt from the guard
    code, out, _ = run(capsys, "count", "anchored132", "--max-n", "14")
    assert code == 0
    assert len(out.split()) == 14


def test_classify_plain_non_tty_uses_letters(capsys):
    code, out, _ = run(capsys, "classify", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 6
    row_231 = next(line for line in lines if line.startswith("2 3 1"))
    assert row_231.split()[3:6] == ["N", "Y", "N"]
    assert "✓" not in out  # captured stream is not a terminal


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 24
    by_pattern = {r["pattern"]: r for r in rows}
    assert by_pattern["3 4 1 2"]["sortables_avoid_anchored_132"] is False
    assert by_pattern["3 2 1 4"]["is_class"] is True
    assert by_pattern["3 2 1 4"]["class_basis"] == ["1 3 2", "4 1 2 3"]


def test_classify_rejects_out_of_range_length(capsys):
    code, _, err = run(capsys, "classify", "2")
    assert code == 2
    assert "length" in err


def test_verify_small_run_exits_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "theorems", "--max-sigma-len", "3", "--max-n", "6"
    )
    assert code == 0
    assert "summary:" in out
    assert " FAIL" not in out


def test_verify_inconclusive_witness_search_is_info_not_fail(capsys):
    # the 231 downset violation first appears at n = 6, so a shallower run
    # must report the search as inconclusive rather than failed
    code, out, _ = run(
        capsys, "verify", "--suite", "theorems", "--max-sigma-len", "3", "--max-n", "5"
    )
    assert code == 0
    assert "THM 2.2 | 2 3 1 | 5 | INFO" in out


def test_verify_conjectures_reports_findings(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "conjectures", "--max-n", "5")
    assert code == 0
    assert "FINDING" in out


def test_fertility_value_and_profile(capsys):
    code, out, _ = run(capsys, "fertility", "--sigma", "123", "--gamma", "213")
    assert code == 0
    assert out.strip() == "2"
    code, out, _ = run(capsys, "fertility", "--sigma", "123", "--n", "3", "--format", "json")
    assert code == 0
    profile = json.loads(out)
    assert profile == {"1 3 2": 1, "2 1 3": 2, "3 1 2": 1, "3 2 1": 1}


def test_fertility_argument_conflicts(capsys):
    code, _, err = run(capsys, "fertility", "--sigma", "123", "--gamma", "213", "--n", "3")
    assert code == 2
    assert "exactly one" in err
    code, _, _ = run(capsys, "fertility", "--sigma", "123")
    assert code == 2


def test_fertility_profile_rejects_negative_length(capsys):
    code, out, err = run(capsys, "fertility", "--sigma", "21", "--n", "-1")
    assert code == 2
    assert out == ""
    assert "n must be >= 0" in err


@pytest.mark.parametrize("what", ["sortable", "sorted", "anchored132"])
def test_count_rejects_negative_length(capsys, what):
    code, out, err = run(capsys, "count", what, "--sigma", "21", "--max-n", "-1")
    assert code == 2
    assert out == ""
    assert "error: n must be >= 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-n", "-1"],
        ["verify", "--suite", "theorems", "--max-n", "-1"],
        ["verify", "--suite", "tables", "--max-n", "-3"],
        ["verify", "--suite", "conjectures", "--max-n", "-1"],
        ["explore", "--max-n", "-1"],
    ],
    ids=["all", "theorems", "tables", "conjectures", "explore"],
)
def test_negative_max_n_is_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error: n must be >= 0" in err


@pytest.mark.parametrize(
    "extra", [["--sigma", "99x"], ["--sigma", "231"], ["--force"]], ids=["bad-sigma", "sigma", "force"]
)
def test_count_anchored132_rejects_sigma_and_force(capsys, extra):
    code, out, err = run(capsys, "count", "anchored132", "--max-n", "3", *extra)
    assert code == 2
    assert out == ""
    assert "error: count anchored132 takes no --sigma or --force" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-sigma-len", "1", "--max-n", "3"],
        ["verify", "--suite", "theorems", "--max-sigma-len", "1", "--max-n", "3"],
        ["verify", "--suite", "tables", "--max-sigma-len", "-5", "--max-n", "3"],
    ],
    ids=["all", "theorems", "tables"],
)
def test_max_sigma_len_below_2_is_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error: max pattern length must be >= 2" in err


def test_explore_prints_blocks(capsys):
    code, out, _ = run(capsys, "explore", "--max-n", "3")
    assert code == 0
    assert "convention: strict" in out
    assert "EQUIDISTRIBUTED: yes" in out


def test_explore_weak_convention_disagrees(capsys):
    code, out, _ = run(capsys, "explore", "--max-n", "3", "--minima-convention", "weak")
    assert code == 0
    assert "EQUIDISTRIBUTED: no" in out
    assert "first mismatch" in out


def test_plain_and_csv_agree_on_numbers(capsys):
    _, plain, _ = run(capsys, "count", "sortable", "--sigma", "321", "--max-n", "5")
    _, csv_out, _ = run(
        capsys, "count", "sortable", "--sigma", "321", "--max-n", "5", "--format", "csv"
    )
    plain_numbers = plain.split()
    csv_numbers = [line.split(",")[1] for line in csv_out.strip().splitlines()]
    assert plain_numbers == csv_numbers


def test_verify_exits_1_on_a_failed_check(capsys, monkeypatch):
    results = [CheckResult("X", "-", 1, status) for status in ("PASS", "FINDING", "FAIL")]
    monkeypatch.setattr(cli, "verify_conjectures", lambda *args: results)
    code, out, _ = run(capsys, "verify", "--suite", "conjectures")
    assert code == 1
    assert out.splitlines() == [
        "X | - | 1 | PASS",
        "X | - | 1 | FINDING",
        "X | - | 1 | FAIL",
        "summary: 1 pass, 1 fail, 1 findings",
    ]


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["count", "sortable", "--sigma", "231"])  # missing --max-n
    assert exc.value.code == 2


def test_threads_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "count", "sortable", "--sigma", "231", "--max-n", "5"])
    assert exc.value.code == 2


# Pinned stdout SHA-256 and exit code of each command: a refactor of the pass
# core or the enumerators must leave these outputs byte-identical.
GOLDEN = [
    (
        ["verify", "--suite", "all", "--max-sigma-len", "3", "--max-n", "7"],
        0,
        "97e5c9d4ffe6456d04012f117d7d2d9a7591d828075d3dcd533fffa721fda4c2",
    ),
    (
        # the length-4 patterns, every witness below witness_n(4) = 7
        ["verify", "--suite", "theorems", "--max-sigma-len", "4", "--max-n", "6"],
        0,
        "4bda580674a818f1f5aa7cd7898944b9e3a7ff4a57a33585ead7f9c84f357731",
    ),
    (
        # a cardinality line above the n <= 7 cap of the equidistribution lines
        ["verify", "--suite", "conjectures", "--max-n", "8"],
        0,
        "16b3df59281b6c7382e2818831d9b3921699e69240f267256bebda771315158b",
    ),
    (
        # the only report that walks the Fishburn-3412 family at n = 8
        ["explore", "--max-n", "8"],
        0,
        "a2f98f05d1b300e3e91f48bf39ba398fbb1dc5a47437b63c2c1715dfa20fa155",
    ),
    (
        # the weak reading of an ascent sequence's right-to-left minima
        ["explore", "--max-n", "8", "--minima-convention", "weak"],
        0,
        "c8b78f29a9dea448bc831ae0e9c2cf1369b62473d4a45cc3692c4514e3697d71",
    ),
    (
        ["verify", "--suite", "conjectures", "--max-n", "8", "--minima-convention", "weak"],
        0,
        "d87c0c7dbd2723db4e0d2bc2ff7b9fe5bc5042a7586008a8953006d3caae68bc",
    ),
    (
        ["count", "sortable", "--sigma", "2134", "--max-n", "7"],
        0,
        "1388df96631f99882a0e8dc449bcdbde3ca941d332651bc11fc65543ce12e396",
    ),
    (
        ["count", "sorted", "--sigma", "4123", "--max-n", "7", "--format", "csv"],
        0,
        "36a1cdfc8ed2406f8bb6eab625812939eadc0886731e8f406450acf2e0d36035",
    ),
    (
        ["fertility", "--sigma", "123", "--n", "5"],
        0,
        "13a91bb4432e3b8f588a5cefb9febbe84285291d1bd2677021260cdba19782d5",
    ),
    (
        # the input avoids 132
        ["trace", "1342", "10 9 11 12 5 3 2 4 6 7 1 8", "--format", "json"],
        0,
        "9d4fa22af50ef3cdf82e4f08532dd10a7217b5ea1b77e42eaa1d5eaf4bcf0dc8",
    ),
    (
        ["classify", "5", "--format", "csv"],
        0,
        "a5a957fb36dd1647f8adbe74678176f93b7ea3ed18997d3417088382834584e1",
    ),
    (
        ["classify", "6", "--format", "csv"],
        0,
        "88340c4924bbb844295a956f26a271180a03341aefa145009ccb1649fd83f7f0",
    ),
    (
        # the benchmark's verify job
        ["verify", "--max-sigma-len", "4", "--max-n", "7"],
        0,
        "a48eafa253331a315d5386709dbc75ede5e2db0507ef1cd9825319a3c8b9fc07",
    ),
    (
        # the one report that walks the machines of patterns of length 5
        ["verify", "--max-sigma-len", "5", "--max-n", "6"],
        0,
        "ea65b40ebb0d28605cf62ae8d2617aedb151601fc81b9655d0f405582e8b4c3d",
    ),
    pytest.param(
        # the default report: 391 pass, 0 fail, 14 findings
        ["verify", "--max-sigma-len", "4", "--max-n", "8"],
        0,
        "b05614a04304e32739c8d5349324df355fe693950b86ef65f6af7631c39eabdb",
        marks=pytest.mark.slow,
    ),
]


@pytest.mark.parametrize(
    "argv, code, digest",
    GOLDEN,
    ids=[
        "verify-3-7",
        "verify-theorems-4-6",
        "verify-conjectures-8",
        "explore-8",
        "explore-8-weak",
        "verify-conjectures-8-weak",
        "count-sortable-2134",
        "count-sorted-4123",
        "fertility-123",
        "trace-1342",
        "classify-5-csv",
        "classify-6-csv",
        "verify-4-7",
        "verify-5-6",
        "verify-4-8",
    ],
)
def test_golden_output(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
