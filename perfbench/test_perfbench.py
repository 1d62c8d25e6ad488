"""Tests of the benchmark itself: seeded generators, output checks, spans.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from s4bell import cli, tables  # noqa: E402

CASE_I = oracle.spec_text(tables.CASE_PAIRS["I"])
OPS = {
    "json": ["analyze", "--pairs", CASE_I, "--json"],
    "csv": ["analyze", "--pairs", CASE_I, "--csv"],
    "text": ["analyze", "--pairs", CASE_I],
    "game": ["game", "--pairs", CASE_I],
    "verify": ["verify"],
    "scan": ["scan", "--orbits", "1", "--top", "10", "--phi", "x12"],
}


@pytest.fixture(scope="module")
def reference():
    return oracle.Oracle()


@pytest.fixture(scope="module")
def traced(reference):
    """Each op of OPS run once under the tracer: outputs, spans and op ids."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        outputs = {
            key: run.call(cli, argv, tracer, op_id)
            for op_id, (key, argv) in enumerate(OPS.items())
        }
    finally:
        tracer.uninstall()
    return outputs, tracer


def _analyze(spec):
    code, out, _, _, _ = run.call(cli, ["analyze", "--pairs", spec, "--json"])
    report = json.loads(out)
    return report["quantum"]["lambda_max"], report["classical"]["max_coefficient"]


def _check(reference, key, code, out):
    oracle.check(OPS[key], code, out, reference, _analyze)


def _first(name, seed, reference, n=40):
    return list(itertools.islice(workloads.stream(name, seed, reference), n))


@pytest.mark.parametrize("name", run.NAMES)
def test_streams_are_deterministic_per_seed(name, reference):
    assert _first(name, 7, reference) == _first(name, 7, reference)


def test_streams_differ_between_seeds(reference):
    assert _first("analyze", 1, reference) != _first("analyze", 2, reference)
    assert _first("scan", 1, reference) != _first("scan", 2, reference)


def test_analyze_stream_holds_only_valid_specs(reference):
    commands = set()
    for argv in _first("analyze", 3, reference, n=300):
        pairs = oracle.parse_spec(argv[argv.index("--pairs") + 1])
        assert 1 <= len(pairs) <= 3
        assert not reference.terms_repeat(pairs)
        assert "--histogram" not in argv
        commands.add(tuple(a for a in argv if a.startswith("--") and a != "--pairs"))
    assert commands == {("--json",), ("--csv",), ()}
    assert any(argv[0] == "game" for argv in _first("analyze", 3, reference, n=300))


def test_oracle_reproduces_bundled_bounds(reference):
    for name in tables.CASE_NAMES:
        ref = reference.spec(tables.CASE_PAIRS[name])
        assert ref.cmax == tables.REF_CLASSICAL_BOUND[name]
        assert abs(ref.lam - tables.REF_SUM_EIGENVALUE[name]) < 0.015
    assert reference.spec(tables.CASE_PAIRS["I"]).table == {
        k: set(v) for k, v in tables.REF_WINNING_TABLE_I.items()
    }


@pytest.mark.parametrize("key", list(OPS))
def test_untampered_outputs_pass(key, traced, reference):
    code, out, _, _, _ = traced[0][key]
    _check(reference, key, code, out)


TAMPERS = [
    ("json", '"lambda_max": 16.09', '"lambda_max": 16.10'),
    ("json", '"max_coefficient": 16', '"max_coefficient": 15'),
    ("text", "lambda_max = 16.09", "lambda_max = 16.10"),
    ("text", "14   01 10 22", "14   01 10 21"),
    ("csv", "x01:x14,D0,1,7.4", "x01:x14,D0,1,7.3"),
    ("game", "quantum value:   0.2515", "quantum value:   0.2517"),
    ("verify", "rows 1..20 match", "rows 1..20 DIFFER"),
    ("verify", "computed 16.0930 vs", "computed 16.1030 vs"),
    ("verify", "computed 16 vs reference 16", "computed 17 vs reference 16"),
    ("verify", "18/19 checks passed", "19/19 checks passed"),
]


@pytest.mark.parametrize("key,old,new", TAMPERS)
def test_tampered_outputs_are_rejected(key, old, new, traced, reference):
    code, out, _, _, _ = traced[0][key]
    assert old in out
    with pytest.raises(oracle.CheckError):
        _check(reference, key, code, out.replace(old, new, 1))


def test_tampered_scan_row_is_rejected(traced, reference):
    code, out, _, _, _ = traced[0]["scan"]
    lines = out.splitlines()
    row = lines[3].split()
    tampered = lines[3].replace(f" {row[2]}  ", f" {float(row[2]) + 0.01:.2f}  ")
    assert tampered != lines[3]
    lines[3] = tampered
    with pytest.raises(oracle.CheckError):
        _check(reference, "scan", code, "\n".join(lines) + "\n")


def test_verify_with_other_exit_code_is_rejected(traced, reference):
    _, out, _, _, _ = traced[0]["verify"]
    with pytest.raises(oracle.CheckError):
        _check(reference, "verify", 0, out)


def test_traced_call_counts_match_the_code(traced):
    _, tracer = traced
    kinds = {op_id: key for op_id, key in enumerate(OPS)}
    calls = spans.calls_by_command(tracer.spans, kinds)
    for key in ("json", "csv", "text"):
        assert calls[key]["quantum.max_eigenvalue_sum"] == 2
    assert calls["game"]["quantum.max_eigenvalue_sum"] == 1
    assert calls["verify"]["quantum.jacobi_eigh"] == 13
    assert calls["verify"]["classical.classical_histogram"] == 3
    assert "quantum.jacobi_eigh" not in calls["scan"]
    for key in ("json", "csv", "text", "game", "scan"):
        assert "classical.classical_histogram" not in calls[key]


def test_self_times_sum_to_root_span(traced):
    _, tracer = traced
    per_op, _, _, total_self = spans.aggregate(tracer.spans, dict.fromkeys(range(len(OPS)), 1.0))
    roots = sum(end - start for name, start, end, parent, _, _ in tracer.spans
                if parent is None and name == "cli.main")
    assert total_self == pytest.approx(roots, rel=1e-9)


def test_uninstall_restores_the_library():
    original = cli.max_eigenvalue_sum
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.max_eigenvalue_sum is not original
    finally:
        tracer.uninstall()
    assert cli.max_eigenvalue_sum is original


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "OP_LAYERS", spans.OP_LAYERS + ("quantum.no_such_function",))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["quantum.no_such_function"]
    values = spans.layer_metrics([], {0: 1.0}, 1.0, 1.0)
    assert values["quantum.max_eigenvalue_sum.calls_per_op"] == 0


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    pct, value = run.tail([float(x) for x in range(1, 101)])
    assert (pct, value) == (90, 90.0)


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.metric_names()
