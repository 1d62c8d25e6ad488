import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from s4bell import cli
from s4bell.cli import PairSpecError, main, parse_pair_spec, run_verification
from s4bell.orbit import OrbitPair, all_labels

LABELS = [f"x{outcome}{basis}" for basis, outcome in all_labels()]


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


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


@pytest.mark.parametrize("target, argv", [
    ("max_eigenvalue_sum", ["analyze", "--pairs", "x01:x14"]),
    ("classical_histogram", ["verify"]),
], ids=["analyze", "verify"])
def test_internal_error_exits_3(monkeypatch, capsys, target, argv):
    def fail(*args, **kwargs):
        raise RuntimeError("cross-check failed")

    monkeypatch.setattr(cli, target, fail)
    assert main(argv) == 3
    assert "internal error: cross-check failed" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["analyze"])  # missing --pairs
    assert err.value.code == 2


def test_analyze_diagonal_pair():
    code, out = run_cli(["analyze", "--pairs", "x01:x01"])
    assert code == 0
    assert "lambda_max = 8.00" in out
    assert "max coefficient = 8" in out
    assert "violation: no" in out


def test_analyze_case1_text():
    code, out = run_cli(["analyze", "--pairs", "x01:x14,x01:x07,x01:x15"])
    assert code == 0
    assert "lambda_max = 16.09" in out
    assert "max coefficient = 16" in out
    assert "violation: yes (gap 0.09)" in out
    assert "lambda_max/64 = 0.2515" in out


def test_analyze_json_roundtrip():
    code, out = run_cli(["analyze", "--pairs", "x01:x14,x01:x07,x01:x15", "--json"])
    assert code == 0
    parsed = json.loads(out)
    again = json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    assert again == out
    assert parsed["classical"]["max_coefficient"] == 16
    assert parsed["violation"]["violated"] is True
    assert abs(parsed["quantum"]["lambda_max"] - 16.0930) < 1e-3


def test_analyze_csv_spectrum():
    code, out = run_cli(["analyze", "--pairs", "x01:x01", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "pair,component,dim,eigenvalue"
    assert len(lines) == 5


def test_analyze_csv_histogram():
    code, out = run_cli(
        ["analyze", "--pairs", "x01:x14,x01:x07,x01:x15", "--csv", "--histogram"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,count"
    assert "1,12960" in lines
    assert "16,15876" in lines


def test_game_command():
    code, out = run_cli(["game", "--pairs", "x01:x14,x01:x07,x01:x15"])
    assert code == 0
    assert "classical value: 1/4 = 0.2500" in out
    assert "quantum value:   0.2515" in out
    assert "violation: yes" in out


def test_orbits_command():
    code, out = run_cli(["orbits"])
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("x")]
    assert len(rows) == 24
    x28 = next(line for line in rows if line.startswith("x28"))
    assert "0.577350" in x28


def test_orbits_json():
    code, out = run_cli(["orbits", "--json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["vectors"]) == 24


def test_scan_single_orbit_finds_no_violation():
    code, out = run_cli(["scan", "--orbits", "1"])
    assert code == 0
    assert "specs with quantum > classical: 0" in out


def test_scan_phi_override():
    code, out = run_cli(["scan", "--orbits", "1", "--phi", "x28", "--top", "1"])
    assert code == 0
    assert "Alice fixed at x28" in out
    # the seed paired with itself always tops a single-orbit scan
    assert "x28:x28" in out


def test_scan_rejects_negative_top(capsys):
    with pytest.raises(SystemExit) as err:
        main(["scan", "--orbits", "1", "--top", "-20"])
    assert err.value.code == 2
    assert "--top" in capsys.readouterr().err


def test_scan_three_orbits_contains_cases():
    code, out = run_cli(["scan", "--orbits", "3", "--top", "2600"])
    assert code == 0
    lines = out.splitlines()
    case2 = next(line for line in lines if "x01:x01,x01:x23,x01:x16" in line)
    assert "+0.51" in case2
    case1 = next(line for line in lines if "x01:x14,x01:x15,x01:x07" in line)
    assert "+0.09" in case1
    case3 = next(line for line in lines if "x01:x14,x01:x25,x01:x18" in line)
    assert "+1.39" in case3


def test_verify_deterministic_and_reports_known_mismatch():
    lines_a, lines_b = [], []
    ok_a = run_verification(echo=lines_a.append)
    ok_b = run_verification(echo=lines_b.append)
    assert lines_a == lines_b
    assert ok_a is False and ok_b is False
    failures = [line for line in lines_a if line.startswith("FAIL")]
    # the single expected mismatch: the case III reference 17.38 is the sum
    # of truncated two-decimal values, the exact eigenvalue is 17.3915
    assert len(failures) == 1
    assert "case III: maximal eigenvalue" in failures[0]


def test_verify_command_exit_code():
    code, out = run_cli(["verify"])
    assert code == 1
    assert "18/19 checks passed" in out
