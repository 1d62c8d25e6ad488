import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from s4bell import cli, quantum
from s4bell.cli import PairSpecError, main, parse_pair_spec, run_verification
from s4bell.context import standard_context
from s4bell.orbit import OrbitPair, all_labels
from s4bell.quantum import eigenvalues_isotypic
from s4bell.representation import DecompositionError

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
    for top in ("-20", "abc"):
        with pytest.raises(SystemExit) as err:
            main(["scan", "--orbits", "1", "--top", top])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "--top" in stderr
        assert "_non_negative_int" not in stderr


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


# sha256 of the stdout of `scan --orbits N --top 2600 --phi L`, per (N, L),
# recorded before the classical maxima were reduced by symmetry.
SCAN_SHA256 = {
    1: [
        "858686fb1dfeb6df2bc8c67dd1a443ac73dc73f81b302c9ba6e11ca8e55d2fdb",  # x01
        "215189c071ce5577509dacbd2bc494f53d830fd59c0bbe80518a9465c2970e1a",  # x11
        "273cf8547a37a5f000bf38cf203d692f1957a147b61b96b77c9f398bc031b53b",  # x21
        "b2d7cbf5f7501f151d86c3ee77b1ddf171578118806330343b4a0b21e4f5c07a",  # x02
        "cb6adbcecbf1134b4872b37eaf654643767df6d41976e4956007ea79a7f83d0b",  # x12
        "183bd5c897ef1f89a7f78aff9734a82fce370ae0bd2f65b8592b7c45e0b9f084",  # x22
        "539b664109491b7cd55862fe77661c4bedf60f688e98ffd595dce09edc517ad1",  # x03
        "f8352a1b1b1c80b31d9c839b35444bc59bee0db019d9d01621ba10222e8e2ec4",  # x13
        "72803c7b22645010747997c121437e896aa89590efacb6cd6ddd0eaf7a7a271d",  # x23
        "8b28d541a8f8de14fef07608387fb633c655ad00af1b3fbb314278f27b1fb768",  # x04
        "8f17f958b842eea5fc25864925ed676e18174a8f58052345de38a49b71a486d6",  # x14
        "68b852c2db235596ca929aabfaf6fe294507e01c40915b90ec31dd31018f2ae6",  # x24
        "2ac04ad6444fdee9882b9b8508ace8b2febda6ee3e414e95aa2c6530135980ca",  # x05
        "c54597eeee806fda8a2a0009da9a790030c0f88a7dc89e786b5bdae14f8c9702",  # x15
        "9bc9de407806c99c4d64fd144d879e5f5f825336aee1d6a42f90b8f4f348bd51",  # x25
        "ec5ed11e9ed1b4ad5fcaeee75e646542e3ed118f1caa7a384c2d053e631f6537",  # x06
        "74d3513f35ced275e4fa13244ad5833f952699adc32615a651ec94ca6310cc4c",  # x16
        "26c832b3e627e435648e1e2706049f08966b753a67f2bc2aa8e8fd63262f15c7",  # x26
        "4abd1d64f3d844f0d5e1646673c873ae3319f1c78b52b6f43fef7ad702a06b28",  # x07
        "68f740f10b3a862938ea754a2d319336d9145ce18b4fe4627f6bbcbb8d8eeb06",  # x17
        "e8f302bbe4d69618d52b6f74e2855de62fd1a314f7107a1fbcbf4fcc54d9f504",  # x27
        "c6354494b953bc31234d5990dbb3679cb7311090f0234b249b990df25c42bdda",  # x08
        "057ad2879ca12adfbb139940658d88732a930974a09414089f47b28042c31672",  # x18
        "0d9399b3e9294fa8b790f078b7dd41ff691df9987a2354006c37fe441c37b6d5",  # x28
    ],
    2: [
        "0bd99bed7b0dec45c7ee657fe6fd5623113b8cb2df39303933fea2f92f21a64a",  # x01
        "1df8ab8ff5faea52c73a9f24ae71adbd57935a5267e648c28dce4cb7c6b88770",  # x11
        "a08566bcd21c2c49405e680b0f1dfe16e6d95688c1a28562c31d1a331316b549",  # x21
        "6b2260d25461c25f4c3decaab0141fc741613e1771ec8a1dff6cec4dd49e4921",  # x02
        "a179f18c32948bc6d02e4e71b8177b9e93258ed7de75bc015d160dea406ef456",  # x12
        "7ae35d83cb1c0c2a02810629ff6ca427112660ce288581bdd6f58113ec504dc7",  # x22
        "875160733989a413428ae8035ee57ac008050e2aa589d11c5a982263725c2657",  # x03
        "c5e11f5e0d4bf53df28ffe9c5add736a5ad23d33f87cdca9964cf63fffda84ae",  # x13
        "f5c04780813e240088766c75b48bdd3975593b2ba7e110d1d1c3a4feab1ff5f7",  # x23
        "8dbf16712bd96e0a48b25dde8ed04b505b1754e809228aba998f33fd14813e97",  # x04
        "0ffdf9d7ed80cebf087d3bcfbbd78a69d34e3a0c8da61081a75240e0b845d782",  # x14
        "e5db2c62a57f5315a973cccaab6fdf00eafb79270af11182b65584f4859d6344",  # x24
        "1b8f676d3134d1f691475077dc9f3e2b85a578fc3c40b2d1a9544983fc5a5b08",  # x05
        "3545c95e8dad9e1bbad34b6a7eb3a67ec53013a67c8d28ca8cdd9be621ed7a5e",  # x15
        "0b263791bfd307503667d49e4379b3fce37b5d222bb888427542030660cd8f60",  # x25
        "4ff37f7e46d8998f60a0b02470dcac498c58051ad6a6a8b2c186b37bb5f20bb4",  # x06
        "a2bb5c529049a92e32d4498eeb61ae46770eff12fa5ce994ae28ebcde1f84a98",  # x16
        "30b4d27f1e36b8f4eb95a34c043c3e9c98eebc16c1d2b9180471e40b0f5b9ac5",  # x26
        "dc91b3fa925f81dd20711b5df9e68ae278f693b3e7f9c85bef45d18163c371a9",  # x07
        "f292b4921e81302f256c58486553ebc86ac80ce360a0d63217834e0e5458e7f3",  # x17
        "d9c10d26890b46ab3da39ebf31754ea21c97f39f80b51cf377401ddf4f41fc7e",  # x27
        "29981cb0c3d32f54e2523c06ce65758431125074d188743d77b6083839d50f8d",  # x08
        "5aafa8f48d0e6dd6e241860f585a5e3f59c350742f25fe2135f4339a1b0527e5",  # x18
        "683e9764dfb984c092cf251bf1ee81cd1677ea85d1ba424275f7e26b68df516e",  # x28
    ],
    3: [
        "ea62dce6840eb2fa6ef4bc0682fa4e0498842765b741954f79f7efe5b59a75a5",  # x01
        "827e44030dec8202f97ccc3db06abd9ed6b58051122688562cad248e3c8ad570",  # x11
        "35b791fd9ac9dee1d209620ed62eca610a34bd9f902f910a77157660ca4aa4a4",  # x21
        "2786fb8bc7481cc086792589f0cf5a79d819e178b467808f5fd7b47cb9a6d500",  # x02
        "8ce6aaf8d54a810ea0e991578babd5c9082d4c6ed011901388a48523b8b516b5",  # x12
        "ef71f96d45719f1a680ae625a5280f66b7a3fc399d1397abe416b1d9444f887d",  # x22
        "c4a66f8aa624f7f2672fa7ffbf8114dc3d71680b2840ade4252d9bd9b86e1480",  # x03
        "633e8aa78f7855dd45107ee9e077f1374249b57e36d50e6a6201bb18ae85d2b4",  # x13
        "92dd2adfa0c9bb073b983b65b1bb9cb97422eeb6ea177f92f20838d557c16a47",  # x23
        "fa1d2b1b7dac914fd7e82e4e96f5630bdb946f1f357280910bc525cbf103cbf2",  # x04
        "4757594414f23b653f789111667edbb968cf532120d7f866786786cd4606db9b",  # x14
        "0c068787184d7115b7ac38ab154b8566d6ab36aacd2693557b14276f261e9082",  # x24
        "9d661e46d49b8b9573c2ec0b2a0be33d9200f88feb012fc584ce843b13e335cd",  # x05
        "d11fdeef92993d0f56950efe21d1943c739a726e97e358ddbb6b85219695f096",  # x15
        "c23d7ca26289dd079c7b975105ae88f3c506969160132e50ecf8af4cfbc0760e",  # x25
        "e6dd605eaba1d3bc4ce9e1825258a2018175d0307bcd45594eb340c16309e4a8",  # x06
        "a78935f107d100feeed1a64708e8b107d0c31688f41e2aad340bc5a3cbac75b0",  # x16
        "2c24f252d23097c119fcfcc36e359601ff21fc91fe684146bafcb18188954cb6",  # x26
        "41c6e36559fbb9cd663f0092c59aec445ea8e7c6233dbcf7cdf4f3eac95d5f56",  # x07
        "2c95c1a7d0c835de929bd8407e9fa65d3a32c289fcf62e7a933452c94e1bee43",  # x17
        "e87bd1bb5a8b0cd6d5f71a4599808bf7024092ad80a905d12115c1f34653eae9",  # x27
        "f703e45e9e7117ae4f5f1c1db74487e1f24f33165cba965e0ef31b48f71e2ef4",  # x08
        "ce93676576125308631fa50d03bce0beff5a75a5dbed875051dde1242ed9e100",  # x18
        "5df4a61848440bcf7b8b8b768f34c48ead1055d1810e7f8f8862c5ba0b679941",  # x28
    ],
}

@pytest.mark.parametrize("orbits", [1, 2, 3])
def test_full_scans_are_pinned(orbits):
    # Every maximum, tie order and violation count of every full scan.
    for phi, digest in zip(LABELS, SCAN_SHA256[orbits]):
        code, out = run_cli(["scan", "--orbits", str(orbits), "--top", "2600", "--phi", phi])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, phi


@pytest.fixture()
def pair_calls(monkeypatch):
    """A fresh pair model on the standard context, and the calls made to fill it."""
    calls = {"build_x_operator": 0, "eigenvalues_isotypic": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(quantum, name, counted(name, getattr(quantum, name)))
    monkeypatch.delitem(standard_context().__dict__, "pair_model", raising=False)
    return calls


def test_scan_reads_alice_tables_from_the_pair_model(pair_calls):
    # A label's first scan fills its 24 pairs; later scans at that label, of
    # any size, fill none, also after a scan at another label.
    model = standard_context().pair_model
    for orbits, phi, expected in (("3", "x12", 24), ("3", "x12", 0), ("1", "x27", 24),
                                  ("2", "x12", 0), ("3", "x27", 0)):
        before = pair_calls["eigenvalues_isotypic"]
        run_cli(["scan", "--orbits", orbits, "--phi", phi])
        assert pair_calls["eigenvalues_isotypic"] - before == expected, (orbits, phi)
    assert (len(model.rows), len(model.operators)) == (48, 0)
    assert model.alice_table((2, 1)) is model.alice_table((2, 1))

    ctx = standard_context()
    for alice in all_labels():
        eigs = model.alice_table(alice)
        assert eigs.shape == (4, 24) and not eigs.flags.writeable
        phi = ctx.orbit.coords(*alice)
        for m, bob in enumerate(all_labels()):
            fresh = eigenvalues_isotypic(phi, ctx.orbit.coords(*bob), ctx.projectors)
            assert np.array_equal(eigs[:, m], fresh), (alice, bob)


def test_cold_analyze_fills_only_its_pairs(pair_calls):
    spec = "x12:x01,x23:x14,x27:x05"
    code, first = run_cli(["analyze", "--pairs", spec])
    assert code == 0
    model = standard_context().pair_model
    assert set(model.operators) == set(model.rows) == {
        (p.alice, p.bob) for p in parse_pair_spec(spec)}
    assert pair_calls == {"build_x_operator": 3, "eigenvalues_isotypic": 3}
    assert run_cli(["analyze", "--pairs", spec]) == (0, first)
    assert run_cli(["game", "--pairs", spec])[0] == 0
    assert pair_calls == {"build_x_operator": 3, "eigenvalues_isotypic": 3}
    assert len(model.operators) == len(model.rows) == 3


@pytest.mark.parametrize("phi", ["x01", "x12", "x27"])
@pytest.mark.parametrize("orbits, count", [(1, 24), (2, 300), (3, 2600)])
def test_top_k_is_the_head_of_the_full_ranking(orbits, count, phi):
    # Only the printed rows are ranked.  A cut inside a run of exactly equal
    # gaps (at x01: after rank 12, 14 and 19 at size 1, 2 and 4 at size 2,
    # 1, 4, 8, 12 and 20 at size 3) must keep combination order.
    argv = ["scan", "--orbits", str(orbits), "--phi", phi, "--top"]
    lines = run_cli([*argv, "2600"])[1].splitlines()
    assert len(lines) == 3 + count
    for k in [*range(21), count, count + 1]:
        assert run_cli([*argv, str(k)]) == (0, "\n".join(lines[: 3 + k]) + "\n"), k


def test_parser_is_built_once_and_keeps_no_state():
    # The parser is shared by every main() call in a process, so an earlier
    # command's options must not change a later command's defaults.
    assert cli.build_parser() is cli.build_parser()
    spec = "x01:x14,x01:x07,x01:x15"
    later = [["scan", "--orbits", "1"], ["analyze", "--pairs", spec]]
    src = Path(__file__).resolve().parent.parent / "src"
    first = [
        subprocess.run(
            [sys.executable, "-m", "s4bell.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        ).stdout
        for argv in later
    ]
    run_cli(["scan", "--orbits", "3", "--top", "5", "--phi", "x12"])
    run_cli(["analyze", "--pairs", "x01:x23,x01:x16", "--json"])
    assert [run_cli(argv) for argv in later] == [(0, out) for out in first]


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


def test_verify_fails_a_nan_direct_spectrum(monkeypatch):
    monkeypatch.setattr(cli, "eigenvalues_direct",
                        lambda matrix: (np.full(9, np.nan), np.full(9, np.nan)))
    lines = []
    assert run_verification(echo=lines.append) is False
    for name in ("I", "II", "III"):
        line, = [x for x in lines if f"case {name}: componentwise and direct" in x]
        assert line.startswith("FAIL") and "max deviation nan" in line


def test_verify_fails_a_nan_orbit_coordinate_after_the_first_label(monkeypatch):
    standard_context()  # built against the unpatched table
    table = dict(cli.tables.ORBIT_TABLE)
    label = cli.tables.ORBIT_LABELS[1]
    table[label] = np.array([np.nan, 0.0, 0.0])
    monkeypatch.setattr(cli.tables, "ORBIT_TABLE", table)
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
    src = Path(__file__).resolve().parent.parent / "src"
    with subprocess.Popen(
        [sys.executable, "-m", "s4bell.cli", "scan", "--orbits", "3", "--top", "2600"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        assert proc.stdout.readline().startswith("scan over 2600")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert stderr == ""
