import dataclasses
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compare_cli import LABELS, SPECS, check, run
from conftest import fresh_python, run_cli
from s4bell import classical, cli, quantum, tables
from s4bell.cli import PairSpecError, main, parse_pair_spec, run_verification
from s4bell.context import standard_context
from s4bell.game import winning_table
from s4bell.orbit import OrbitPair, all_labels
from s4bell.representation import DecompositionError


def test_parse_pair_spec_case1():
    pairs = parse_pair_spec("x01:x14,x01:x07,x01:x15")
    assert pairs == (
        OrbitPair((1, 0), (4, 1)),
        OrbitPair((1, 0), (7, 0)),
        OrbitPair((1, 0), (5, 1)),
    )


def test_parse_rejects_outcome_out_of_range():
    with pytest.raises(PairSpecError) as err:
        parse_pair_spec("x31:x14")
    assert "outcome 3" in str(err.value)
    assert "position 0" in str(err.value)


def test_parse_rejects_basis_out_of_range():
    with pytest.raises(PairSpecError) as err:
        parse_pair_spec("x01:x09")
    assert "basis 9" in str(err.value)
    assert err.value.position == 4


def test_parse_error_position_in_later_pair():
    with pytest.raises(PairSpecError) as err:
        parse_pair_spec("x01:x14,x31:x15")
    assert err.value.position == 8


def test_parse_rejects_garbage():
    with pytest.raises(PairSpecError):
        parse_pair_spec("hello")


@given(
    chunks=st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)),
                    min_size=1, max_size=4),
    where=st.data(),
    bad=st.sampled_from(["x31", "x09", "x00", "y01", "x0", "x012", "X01", "x\u0660\u0661"]),
    pad=st.sampled_from(["", " ", "  "]),
)
def test_parse_error_reports_offset_of_bad_label(chunks, where, bad, pad):
    chunk = where.draw(st.integers(0, len(chunks) - 1))
    side = where.draw(st.integers(0, 1))
    tokens = [list(pair) for pair in chunks]
    tokens[chunk][side] = pad + bad
    spec = ",".join(f"{left}:{right}" for left, right in tokens)
    offset = sum(len(left) + len(right) + 2 for left, right in tokens[:chunk])
    if side:
        offset += len(tokens[chunk][0]) + 1
    with pytest.raises(PairSpecError) as err:
        parse_pair_spec(spec)
    assert err.value.position == offset + len(pad)
    assert spec[err.value.position:].startswith(bad)


def test_parse_rejects_non_ascii_digits(capsys):
    # Arabic-Indic digits zero, one, four: "x01:x14" in another script.
    spec = "x\u0660\u0661:x\u0661\u0664"
    with pytest.raises(PairSpecError) as err:
        parse_pair_spec(spec)
    assert err.value.position == 0
    assert main(["game", "--pairs", spec]) == 2
    assert "position 0" in capsys.readouterr().err
    # a single label given to --phi is rejected by argparse, with no position
    with pytest.raises(SystemExit) as exit_err:
        main(["scan", "--orbits", "1", "--phi", "x\u0660\u0661"])
    assert exit_err.value.code == 2
    assert (
        "argument --phi: expected a label like x01, got 'x\u0660\u0661'"
        in capsys.readouterr().err
    )


def test_malformed_spec_exits_2(capsys):
    code = main(["analyze", "--pairs", "x31:x14"])
    assert code == 2
    assert "outcome 3" in capsys.readouterr().err


@pytest.mark.parametrize("target, argv, error", [
    ("max_eigenvalue_sum", ["analyze", "--pairs", "x01:x14"], RuntimeError),
    ("classical_histogram", ["verify"], RuntimeError),
    ("classical_max", ["verify"], ValueError),
    ("standard_context", ["analyze", "--pairs", "x01:x14"], ValueError),
    ("standard_context", ["verify"], DecompositionError),
], ids=["analyze", "verify", "library_value_error", "context_value_error",
        "context_decomposition_error"])
def test_internal_error_exits_3(monkeypatch, capsys, target, argv, error):
    def fail(*args, **kwargs):
        raise error("cross-check failed")

    monkeypatch.setattr(cli, target, fail)
    assert main(argv) == 3
    assert "internal error: cross-check failed" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    "x01:x14,x01:x07,x01:x15", "x01:x23,x01:x16,x01:x01", "x01:x25,x01:x14,x01:x18",
    "x01:x01",
], ids=["I", "II", "III", "diagonal"])
def test_analyze_and_game_agree_on_violation(spec):
    _, out = run_cli(["analyze", "--pairs", spec, "--json"])
    violated = json.loads(out)["violation"]["violated"]
    _, out = run_cli(["game", "--pairs", spec])
    assert f"violation: {'yes' if violated else 'no'}" in out.splitlines()


@pytest.mark.parametrize("name", ["I", "II", "III", "mixed_alice"])
def test_game_and_analyze_print_one_winning_table_block(name):
    # Each prints the header once, followed by its rows, and no row line elsewhere: the same
    # block, which is the table of the spec's terms.
    row = re.compile(r"[1-8][1-8]   \d\d( \d\d)*")
    expected = winning_table(cli._expression(SPECS[name])).render_text().splitlines()
    for command in ("game", "analyze"):
        code, out = run_cli([command, "--pairs", SPECS[name]])
        lines = out.splitlines()
        start = lines.index(expected[0])
        assert code == 0 and lines.count(expected[0]) == 1 and len(expected) > 1
        assert lines[start:start + len(expected)] == expected
        assert sum(map(bool, map(row.fullmatch, lines))) == len(expected) - 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["analyze"])  # missing --pairs
    assert err.value.code == 2


ROUTE_ARGVS = [
    ["verify"], ["orbits"], ["orbits", "--json"], ["game", "--pairs", "x01:x14"],
    ["analyze", "--pairs", "x01:x14"], ["analyze", "--json", "--pairs=x01:x14,x01:x07"],
    ["analyze", "--pairs", "x01:x14", "--csv", "--histogram"],
    ["scan", "--orbits", "1"], ["scan", "--orbits", "3", "--top=5", "--phi", "x12"],
    ["scan", "--orb", "3", "--to", "2"], ["scan", "--orbits", "2", "--"],
    ["scan", "--", "--orbits", "2"], ["--", "scan", "--orbits", "2"],
    ["-h"], ["--help", "scan"], ["scan", "-h"], ["analyze", "--pairs", "x01:x14", "--help"],
    [], ["bogus"], ["sca", "--orbits", "1"], ["analyze"], ["game", "--json"],
    ["scan", "--orbits", "4"], ["scan", "--orbits", "1", "--top", "-1"],
    ["scan", "--orbits", "1", "--phi", "x09"], ["scan", "--top", "3"],
    ["analyze", "--pairs", "x01:x14", "--json", "--csv"],
    ["scan", "--orbits", "1", "extra"], ["scan", "extra", "--orbits", "1"],
    ["verify", "extra"], ["verify", "--json"], ["orbits", "--json", "-x"],
]


def parse_result(parse, argv, capsys):
    """(exit code, stdout, stderr, parsed values) of `parse(argv)`; None for the code if it
    returns, for the values if it exits."""
    try:
        code, values = None, vars(parse(argv))
    except SystemExit as exc:
        code, values = exc.code, None
    return code, *capsys.readouterr(), values


@pytest.mark.parametrize("argv", ROUTE_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_argv_as_the_full_parser_does(argv, monkeypatch, capsys):
    # `main` parses a named command with that command's parser, and reaches for the full
    # parser only to word what that one cannot: no command, or arguments left over.
    full = cli.build_parser()
    expected = parse_result(full.parse_args, argv, capsys)
    fallbacks = []
    monkeypatch.setattr(full, "parse_args", lambda argv: fallbacks.append(argv)
                        or type(full).parse_args(full, argv))
    assert parse_result(cli._parse, argv, capsys) == expected
    if expected[0] is None:
        assert fallbacks == []


@pytest.mark.parametrize("argv", [["scan", "--orbits", "2", "--top", "3", "--phi", "x12"],
                                  ["scan", "--orbits", "1", "extra"]])
def test_main_reads_sys_argv_without_argv(argv, monkeypatch):
    # The installed `s4bell` entry point calls main() with no argv.
    expected = run(argv)
    monkeypatch.setattr(sys, "argv", ["s4bell", *argv])
    assert run(None) == expected


def test_analyze_diagonal_pair():
    code, out = run_cli(["analyze", "--pairs", "x01:x01"])
    assert code == 0
    assert "lambda_max = 8.00" in out
    assert "max coefficient = 8" in out
    assert "violation: no" in out


def test_analyze_json_roundtrip():
    spec = "x01:x14,x01:x07,x01:x15"
    code, out = run_cli(["analyze", "--pairs", spec, "--json"])
    assert code == 0
    parsed = json.loads(out)
    again = json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    assert again == out
    assert parsed["classical"]["max_coefficient"] == 16
    assert parsed["violation"]["violated"] is True
    assert abs(parsed["quantum"]["lambda_max"] - 16.0930) < 1e-3

    # --histogram adds the case's histogram and changes nothing else.
    code, out = run_cli(["analyze", "--pairs", spec, "--json", "--histogram"])
    assert code == 0
    report = json.loads(out)
    histogram = report["classical"].pop("histogram")
    assert report == parsed
    expr = classical.bell_terms(parse_pair_spec(spec), standard_context().orbit)
    assert histogram == classical.classical_histogram(expr).as_dict()
    counts = [histogram["counts"][str(c)] for c in range(1, 21)]
    assert counts == list(tables.REF_COEFFICIENT_COUNTS["I"])


# Keys and strings with non-ASCII characters (one outside the BMP), quotes, backslashes and
# control characters; scalars with ints beyond 2**64 and the float edge cases json spells.
_TEXTS = st.text(st.sampled_from(["a", "\u00e9", "\u2603", "\U0001f600", '"', "\\", "\x00",
                                  "\n", "\x1f", "\x7f", "/"]), max_size=4)
_SCALARS = (st.none() | st.booleans() | _TEXTS | st.floats()
            | st.integers(-2 ** 70, 2 ** 70) | st.sampled_from([2 ** 64, -2 ** 64 - 1])
            | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e308]))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_TEXTS, inner, max_size=3)),
    max_leaves=12,
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_VALUES)
@example({"\u00e9\"\\\x01": [{"b": ([], {}, [[{"deep": (2 ** 65, -7)}]])}],
          "f": [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e308, 0.1],
          "s": [True, False, None, "", "\U0001f600"]})
def test_json_writer_is_json_dumps(value):
    # `--json`'s writer is the stdlib's indent-2 encoder, byte for byte.
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1: "int key"}, {1, 2}, np.float64(1.5), [b"bytes"]])
def test_json_writer_rejects_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_analyze_case1_component_layout():
    # Every report lists the components as D, Dt, D2, D0 with dims 3, 3, 2, 1.
    layout = [("D", 3), ("Dt", 3), ("D2", 2), ("D0", 1)]
    spec = "x01:x14,x01:x07,x01:x15"
    _, out = run_cli(["analyze", "--pairs", spec, "--json"])
    quantum = json.loads(out)["quantum"]
    assert len(quantum["per_pair"]) == 3
    for row in quantum["per_pair"]:
        assert [(c["label"], c["dim"]) for c in row] == layout
    sums = quantum["component_sums"]
    assert sorted(sums) == sorted(label for label, _ in layout)
    for k, (label, _) in enumerate(layout):
        column = sum(row[k]["eigenvalue"] for row in quantum["per_pair"])
        assert abs(sums[label] - column) < 1e-12

    _, out = run_cli(["analyze", "--pairs", spec, "--csv"])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[0], r[1], int(r[2]), float(r[3])) for r in rows] == [
        (pair, c["label"], c["dim"], c["eigenvalue"])
        for pair, row in zip(spec.split(","), quantum["per_pair"])
        for c in row
    ]


def test_analyze_csv_spectrum():
    code, out = run_cli(["analyze", "--pairs", "x01:x01", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "pair,component,dim,eigenvalue"
    assert len(lines) == 5


def test_scan_single_orbit_finds_no_violation():
    code, out = run_cli(["scan", "--orbits", "1"])
    assert code == 0
    assert "specs with quantum > classical: 0" in out


def test_scan_rejects_negative_top(capsys):
    for top in ("-20", "abc"):
        with pytest.raises(SystemExit) as err:
            main(["scan", "--orbits", "1", "--top", top])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "--top" in stderr
        assert "_non_negative_int" not in stderr


def test_scan_phi_only_relabels_the_multisets():
    # The orbit is regular, so fixing Alice at another label permutes the
    # Bob multisets and leaves the multiset of their values unchanged.
    values = {}
    for phi in ("x01", "x12", "x27"):
        code, out = run_cli(["scan", "--orbits", "3", "--top", "2600", "--phi", phi])
        assert code == 0
        lines = out.splitlines()
        rows = [line.split()[-3:] for line in lines[3:]]
        assert len(rows) == 2600
        values[phi] = (lines[1], sorted(rows))
    assert values["x01"] == values["x12"] == values["x27"]


def rebuilt(monkeypatch, obj, name):
    """Drop `obj`'s cached `name` for the test, which builds its own; after the test `obj`
    holds what it held before."""
    monkeypatch.setitem(vars(obj), name, None)  # records what to restore
    monkeypatch.delitem(vars(obj), name)


@pytest.fixture()
def fresh_class_tables(monkeypatch):
    """The standard context's class tables, built from the pair model as the test leaves it."""
    rebuilt(monkeypatch, standard_context(), "class_tables")


def test_scan_ranking_ignores_rounding_noise(monkeypatch, fresh_class_tables):
    # Independent noise of 1e-12 on every pair class's eigenvalues moves gaps that
    # are equal in exact arithmetic apart by far less than the 1e-9 tie width.  Tie
    # classes are per size and `--phi` only relabels, so three labels per size will do.
    model = standard_context().pair_model
    rows = model.eigenvalues
    rng = np.random.default_rng(24)
    noise = rng.choice([-1e-12, 1e-12], size=rows.shape)
    monkeypatch.setattr(model, "eigenvalues", rows + noise)
    for orbits in (1, 2, 3):
        for phi in ("x01", "x12", "x27"):
            argv = ["scan", "--orbits", str(orbits), "--top", "2600", "--phi", phi]
            check(argv, run(argv))
    multisets, _, lambdas, _, _ = standard_context().class_tables.multisets(1)
    moved = np.abs(lambdas - rows.max(axis=1)[multisets[:, 0]])
    assert 0 < moved.max() < 1.1e-12


@pytest.fixture()
def fresh_pair_classes(monkeypatch, fresh_class_tables):
    """The standard context's pair model and its orbit's pair classes, built afresh in the
    test, as in a new process."""
    rebuilt(monkeypatch, standard_context(), "pair_model")
    rebuilt(monkeypatch, standard_context().orbit, "class_of")


@pytest.mark.parametrize("tamper", [1e-9, np.nan], ids=["shifted", "nan"])
def test_scan_rejects_eigenvalues_that_are_not_s4_invariant(monkeypatch, fresh_pair_classes,
                                                             capsys, tamper):
    # One pair's eigenvalue moved off its class's as the model is built: the pair
    # classes' check fails every command that sums classes.
    isotypic = quantum._isotypic

    def tampered(w, projectors):
        values = isotypic(w, projectors)
        values[5, 7, 2] += tamper
        return values

    monkeypatch.setattr(quantum, "_isotypic", tampered)
    for argv in (["scan", "--orbits", "2"], ["analyze", "--pairs", "x12:x01"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "eigenvalues" in err and "not S4-invariant" in err


def trade_two_pairs(action):
    g = np.argmax(action[:, 5] == 0)  # class_of[5]: two pairs of Alice label x22 trade classes
    action[g, [7, 8]] = action[g, [8, 7]]


def merge_two_classes(action):
    action[action == 5] = 3  # class 5 merges into class 3, still constant on S4 orbits


@pytest.mark.parametrize("tamper", [trade_two_pairs, merge_two_classes])
def test_scan_rejects_pair_classes_that_are_not_s4_invariant(monkeypatch, fresh_pair_classes,
                                                             capsys, tamper):
    # Classes that are not the S4 orbits of the pairs (x01, c), read off a tampered label
    # action that still maps bases onto bases, fail the pair classes' check, and with it
    # every command that sums classes.
    orbit = standard_context().orbit
    action = orbit.label_action.copy()
    tamper(action)
    monkeypatch.setitem(vars(orbit), "label_action", action)
    for argv in (["scan", "--orbits", "2"], ["analyze", "--pairs", "x12:x01"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "term set is not S4-invariant" in err and "eigenvalues" not in err


def test_scan_reads_the_class_row_of_the_table(fresh_pair_classes):
    # With class c's row replaced by the eigenvalues of Alice x12's pair in class c (Bob
    # label m of Alice label k is in class class_of[k, m]), each full scan prints as
    # pinned, and its lambda_max column is read from the replaced rows.
    ctx, labels = standard_context(), all_labels()
    model, k = ctx.pair_model, labels.index((2, 1))
    phi = ctx.orbit.coords(*labels[k])
    model.eigenvalues = np.array([
        quantum.eigenvalues_isotypic(phi, ctx.orbit.coords(*labels[m]), ctx.projectors)
        for m in np.argsort(ctx.orbit.class_of[k])])
    for label in LABELS:
        argv = ["scan", "--orbits", "1", "--top", "2600", "--phi", label]
        check(argv, run(argv))
    multisets, _, lambdas, _, _ = ctx.class_tables.multisets(1)
    assert np.array_equal(lambdas, model.eigenvalues.max(axis=1)[multisets[:, 0]])


# What a process builds: per command, run in this order in one fresh
# process, its exit code, then what the process holds after it: calls of `_isotypic`,
# `build_x_operator`, `class_scan` and `_per_alice_tables`; the standard context's class
# tables M (0 or 1) and class multiset sizes; builds of
# `build_parser`; and the number of the pair model's operators.
BUILDS = [
    ("scan --orbits 1",                         0, 1, 0, 2, 1, 1, 1, 1, 0),
    ("scan --orbits 2",                         0, 1, 0, 16, 1, 1, 2, 1, 0),
    ("scan --orbits 3 --phi x27",               0, 1, 0, 86, 1, 1, 3, 1, 0),
    ("analyze --pairs x12:x01,x23:x14,x27:x05", 0, 1, 3, 87, 1, 1, 3, 1, 3),
    ("analyze --pairs x12:x01,x23:x14,x27:x05", 0, 1, 3, 88, 1, 1, 3, 1, 3),
    ("game --pairs x01:x14,x01:x07",            0, 1, 5, 89, 1, 1, 3, 1, 5),
    ("verify",                                  1, 1, 11, 92, 1, 1, 3, 1, 11),
]

BUILD_PROBE = """
import contextlib, io, json, sys
from s4bell import classical, cli, quantum, standard_context

calls = {}

def counted(module, name):
    fn, calls[name] = getattr(module, name), 0
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    setattr(module, name, wrapper)

for module, name in ((quantum, "_isotypic"), (quantum, "build_x_operator"),
                     (classical._ClassTables, "class_scan"), (classical, "_per_alice_tables")):
    counted(module, name)

def builds(f):
    return f.cache_info().misses if hasattr(f, "cache_info") else "uncached"

for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(command.split())
    ctx = standard_context()
    tables = vars(ctx.class_tables)
    print(json.dumps([command, code, *calls.values(), int("class_m" in tables),
                      len(tables["_multisets"]),
                      builds(cli.build_parser), len(ctx.pair_model.operators)]))
"""


def test_what_a_fresh_process_builds_after_each_command():
    # `scan` builds no operator; the class multisets of one relabeling orbit
    # share one `class_scan` (2, 14 and 70 orbits at sizes 1, 2 and 3); every expression
    # sums its classes' tables once, however many readers it has; the pair model, its
    # class tables and the parser are built once, and operators only for the pairs read.
    result = fresh_python(["-c", BUILD_PROBE, *(row[0] for row in BUILDS)],
                          capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert [tuple(json.loads(line)) for line in result.stdout.splitlines()] == BUILDS


@pytest.mark.parametrize("phi", ["x01", "x12", "x27"])
@pytest.mark.parametrize("orbits, count", [(1, 24), (2, 300), (3, 2600)])
def test_top_k_is_the_head_of_the_full_ranking(orbits, count, phi):
    # `--top k` prints the first k rows of the full ranking.  A cut inside a
    # tie class (at x01: after rank 5, 12, 14, 16 and 19 at size 1; 2-4, 6,
    # 9-11, 13, 15-17 and 19 at size 2; 1, 4, 8, 10, 12, 14, 15, 19 and 20
    # at size 3) must keep combination order.
    argv = ["scan", "--orbits", str(orbits), "--phi", phi, "--top"]
    lines = run_cli([*argv, "2600"])[1].splitlines()
    assert len(lines) == 3 + count
    for k in [*range(21), count, count + 1, 99999999999999999999]:
        assert run_cli([*argv, str(k)]) == (0, "\n".join(lines[: 3 + k]) + "\n"), k


def test_verify_fails_a_nan_direct_spectrum(monkeypatch):
    monkeypatch.setattr(cli, "eigenvalues_direct",
                        lambda matrix: (np.full(9, np.nan), np.full(9, np.nan)))
    lines = []
    assert run_verification(echo=lines.append) is False
    for name in ("I", "II", "III"):
        line, = [x for x in lines if f"case {name}: componentwise and direct" in x]
        assert line.startswith("FAIL") and "max deviation nan" in line


def test_verify_fails_only_the_case_whose_direct_spectrum_moved(monkeypatch):
    # Case II's middle pair is in no other case; its direct spectrum moves by 2e-6, twice EIG_TOL.
    alice, bob = cli.tables.CASE_PAIRS["II"][1]
    moved = standard_context().pair_model.operator(alice, bob)
    solve = cli.eigenvalues_direct

    def moved_off(matrix):
        values, vector = solve(matrix)
        return (values + 2e-6 if matrix is moved else values), vector

    monkeypatch.setattr(cli, "eigenvalues_direct", moved_off)
    lines = []
    assert run_verification(echo=lines.append) is False
    for name in ("I", "II", "III"):
        line, = [x for x in lines if f"case {name}: componentwise and direct" in x]
        if name == "II":
            assert line == ("FAIL case II: componentwise and direct eigenvalues agree"
                            " (max deviation 2.0e-06)")
        else:
            assert line.startswith("ok   ")


def test_verify_names_a_failed_block_basis_check_as_a_passed_one(monkeypatch):
    def broken(projectors):
        raise cli.TableMismatchError("block basis is not orthogonal")

    monkeypatch.setattr(cli, "validate_block_basis", broken)
    lines = []
    assert run_verification(echo=lines.append) is False
    line, = [x for x in lines if "block basis" in x]
    assert line == ("FAIL block basis is orthogonal and block-diagonalizes the projectors"
                    " (block basis is not orthogonal)")


def test_verify_reads_case_i_classical_bound_from_the_reference(monkeypatch):
    monkeypatch.setitem(cli.tables.REF_CLASSICAL_BOUND, "I", 17)
    lines = []
    assert run_verification(echo=lines.append) is False
    for check in ("case I: classical bound", "case I: game values"):
        line, = [x for x in lines if check in x]
        assert line.startswith("FAIL")


def test_verify_fails_a_nan_orbit_coordinate_after_the_first_label(monkeypatch):
    standard_context()  # built against the unpatched table
    points = cli.tables.ORBIT_POINTS.copy()  # verify's reference, row k label ORBIT_LABELS[k]
    points[1] = [np.nan, 0.0, 0.0]
    monkeypatch.setattr(cli.tables, "ORBIT_POINTS", points)
    lines = []
    assert run_verification(echo=lines.append) is False
    line, = [x for x in lines if "orbit reproduces the reference table" in x]
    assert line.startswith("FAIL") and "max coordinate deviation nan" in line


def test_verify_fails_a_nan_orbit_coordinate(monkeypatch):
    # Label x02 is in none of the built-in cases, so every other check runs.
    ctx = standard_context()
    points = ctx.orbit.points.copy()
    points[all_labels().index((2, 0)), 1] = np.nan
    broken = dataclasses.replace(ctx, orbit=dataclasses.replace(ctx.orbit, points=points))
    monkeypatch.setattr(cli, "standard_context", lambda: broken)
    lines = []
    assert run_verification(echo=lines.append) is False
    line, = [x for x in lines if "orbit reproduces the reference table" in x]
    assert line.startswith("FAIL") and "max coordinate deviation nan" in line
    assert sum(x.startswith("FAIL") for x in lines) == 2  # and case III's known mismatch


def test_verify_command_exit_code():
    code, out = run_cli(["verify"])
    assert code == 1
    assert "18/19 checks passed" in out


def test_closed_stdout_exits_141_without_traceback():
    # about 190 KB of output, more than a pipe holds, so the write after the
    # reader closes the pipe always fails
    with fresh_python(["-m", "s4bell.cli", "scan", "--orbits", "3", "--top", "2600"],
                      subprocess.Popen, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                      text=True) as proc:
        assert proc.stdout.readline().startswith("scan over 2600")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert stderr == ""


def test_top_k_keeps_a_tie_class_that_chains_past_the_cut(monkeypatch, fresh_class_tables):
    # Gaps 1, 1 - 0.8e-9 and 1 - 1.6e-9 at x22, x03 and x01 chain into one tie
    # class by steps under 1e-9, though x01's is 1.6e-9 below the first; every
    # other gap is -1.  The class ranks in combination order, x01:x01 first, at
    # every --top.  The class rows are patched directly.
    ctx, labels = standard_context(), all_labels()
    model = ctx.pair_model
    cmaxes = np.array([classical.classical_max(classical.bell_terms(
        [OrbitPair(labels[0], label)], ctx.orbit)) for label in labels])
    gaps = np.full(24, -1.0)
    gaps[[5, 6, 0]] = 1.0, 1 - 0.8e-9, 1 - 1.6e-9
    row = np.repeat((cmaxes + gaps)[:, None], 4, axis=1)
    monkeypatch.setattr(model, "eigenvalues", row)
    argv = ["scan", "--orbits", "1", "--top"]
    lines = run_cli([*argv, "24"])[1].splitlines()
    assert lines[1] == "specs with quantum > classical: 3"
    assert [line.split()[1] for line in lines[3:6]] == ["x01:x01", "x01:x22", "x01:x03"]
    for k in range(25):
        assert run_cli([*argv, str(k)]) == (0, "\n".join(lines[: 3 + k]) + "\n"), k
