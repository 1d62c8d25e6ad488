import dataclasses
import hashlib
import json
import subprocess

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fresh_python, run_cli
from s4bell import classical, cli, quantum, tables
from s4bell.cli import PairSpecError, main, parse_pair_spec, run_verification
from s4bell.context import standard_context
from s4bell.orbit import OrbitPair, all_labels
from s4bell.representation import DecompositionError

LABELS = [f"x{outcome}{basis}" for basis, outcome in all_labels()]


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
# recorded when gaps within 1e-9 were first ranked as one tie class.
SCAN_SHA256 = {
    1: [
        "63a52028270b58932db34cfaebeef0a529cc9ff6011d03643e12117f5f89399a",  # x01
        "72e3f950ba817d807a2ea20e082262a2c43ca113e6d3c3359265c2d2c0d2df4d",  # x11
        "d4b11f31007d8156b7e5f868d9bf62d6156d0bc0942416f740005fcf438515ba",  # x21
        "270d752452f5126bb632d0f18da975b75097c2e676d41255a7bb989a1875f6ad",  # x02
        "cffb2a825c56a57b563ea71a63b0c7aa6bd8dfeb856a2519fc7d574269be433a",  # x12
        "2180f2b81cee06719b0823902f24ed768087c4ab99d691f2b151087101db851c",  # x22
        "539b664109491b7cd55862fe77661c4bedf60f688e98ffd595dce09edc517ad1",  # x03
        "d8edae04a95a4368fa1620471ba81b130b59eb7432784608afe702bb90ce81c6",  # x13
        "ffe3c5c337a47af7a2744977963b2c4bbca7057f7685f95428f1dbd6fc57202a",  # x23
        "818557255e8dfd0a29011c2b9d45e25bd8b424c355d4bd41fc64a80719f1e985",  # x04
        "63aef8881bcec6c4475ab8310624367bb55364f89b5b8a8c78e1f72290bc4c6a",  # x14
        "a2a1e5f9ba9e9421a39a433ab769b594aaac391382707130fa6130f7245b73b2",  # x24
        "627a2e6bd438dd5e69a5ed6af53655e3e27083ae271ee22217005a81068f5fbe",  # x05
        "c54597eeee806fda8a2a0009da9a790030c0f88a7dc89e786b5bdae14f8c9702",  # x15
        "43753fbfcc53f409dee46154d347630dd674baa2abb894e667b0ae1c778d6383",  # x25
        "956606cd8fa578bfbcd5fa486667c50b32778864664c968464574ec3869e9ae6",  # x06
        "7bf2b6967f8a5f10ebc22a6391a5687dc44ceb2e66aedf193b270b2c2f708d12",  # x16
        "c0216e22d8eb03e1db6c31589b49aec0e792a39ee522b562b3627ba5a36286b1",  # x26
        "47a3a7a3ac15f72dabff7c2e82a36c03d46f50d85f1261bc335165161b7de55b",  # x07
        "4c051a5403c198ce2e60a0e55c803b3c62abfb2be3c6c521523dabd8ae17e2dd",  # x17
        "55ab582853e2d3ce0077d32d86d66835c9a359385ee106f7b1bc65fb1464ef90",  # x27
        "945d2ecd753a070f4bd5926b0dcc1c0d4fa93d392613db4ad7344858dec30ac1",  # x08
        "ddb5583062ff14ed724393c7e1ca2ccbdff6e3bcb367d9feff53cfc7d6900b6e",  # x18
        "0d9399b3e9294fa8b790f078b7dd41ff691df9987a2354006c37fe441c37b6d5",  # x28
    ],
    2: [
        "9f5cbc7a76408666e5362b35b72a8824711bc42c20cdaa9bcf910ecbcc808287",  # x01
        "d0257ac3a9c348091d9cd71db05526ef96739e3b66178b09542de91bdbe9c997",  # x11
        "7c7dc73f187c10ecdcde6992ec6fffc26e3f74afe4f04355e2ddb00533f06d5a",  # x21
        "5270dac05613224a51c8bafa547d6ea05d97928a988f7acd78dd2711d6c76f20",  # x02
        "3a5b8ed48a5604f024f8bab3cf8b4c180e87a26e68b26307f0bb84ffea1725a8",  # x12
        "c25ebd4f0d35908d001ffa22825723a3baa43cf0b3adb09d6b6f77e448feeaf4",  # x22
        "db80eff6dfaf54c504ba57460bb9d1a6ac34ce1bb833107c95604f635abf5e2d",  # x03
        "592845a52caa8f8391b89b5a68b7e5ace7f703018cd96db523af10169369e627",  # x13
        "2a58328af83ba1d9c3d0b0b47047b73796088d09b7b494b7a576182428dd7d7c",  # x23
        "5b3a16f971108178895a61ba9a9a3de95082f6147483c1ea646cd3bec01e55ca",  # x04
        "b0b4e4488e26e9063d542d592e2df33a77867be6c6c887e1c09b43f6af2936cd",  # x14
        "f81beaf9fb920d05b6030e7e6b077d2b690ab13e62e550a9e64b2a975a93e89f",  # x24
        "3c9f88123eaaa463e54da8c61f9b2b8617a7787e6f2506534af9e43357729e62",  # x05
        "449cc9f7b9d27ba22eed98877bc0f3e5e6964f192f3a1727ad949bb89329550f",  # x15
        "b0794c10c20ce60b233b803458e7d80e4b06637e808f9eab0f146ba14e38b4ec",  # x25
        "d7be01d0cecbab99fa052e7e2339c3078381dee064d83ce428bcf0ae76f00410",  # x06
        "5257b823090de532d8bcd787294109f70dfda251dfcdc60b05f583305a7be1d9",  # x16
        "5aef6b8082aa9245c96ceba80e3348123636885077d09f479faab2f7f5b864f4",  # x26
        "0b2ab522a9a0adb31f7f568101f587e161cefb61a8ae28318970b396ecd681cb",  # x07
        "5528928f6e20826209c167388f9f9f44c2b405c7e368d99613b96e1832ea15d4",  # x17
        "de6ec53eb8bfcbf0e9acb47b763c0ef389254923723220912c3a80f899e754d0",  # x27
        "a2b44e52309a7c2d8b608ef22aff324ba4c9822b336f0e05d03e0059485ec0cb",  # x08
        "f6c908fc2fba66ef4312a1aa7f8f501beb8883618fd0cc7aedf3cbe691b047e1",  # x18
        "5603c577417613dde843de7bf40a7aa27a8c90966de796d8fcf13b84ff825d38",  # x28
    ],
    3: [
        "e61ecf5149f292b107eddbdb068119d556558eeb815adeaaf4f2025617d46467",  # x01
        "d0007981ab3063fa7ebed1ecf6451a3c6ade343ecff9d7ec446da4fd2c9b58f8",  # x11
        "cbb4558d7c5d5f1039d2ebb8ef5933c44d41747e1c2187f658929fbcc011e82f",  # x21
        "fa91ae99da78f47e2492e8759fd198106fa1a187b7d71efc3513abd4bfa0506d",  # x02
        "ff540f4e26df31836540da6e6845c102530731ea320e4a1d0f6d9b9e6c788bd2",  # x12
        "90d0d675c8fe019ce32468a55baf683d12bcfc60d96454e66c1c769f02c30da9",  # x22
        "6f72ad2272328df16c1e9e9d3e7f898b77d617a1554719665d155cab093b98be",  # x03
        "fd93e17f65d83d2db9044eb784518a0800ea1ccc8db5eabdd844bd21f774d853",  # x13
        "1009422ce662d4294b5a339562a117a7ba6759b6a35f62eb4596d241d1553fc0",  # x23
        "efe66ddde0d130d5ead6bab93778a985dc5f7bc18ecbdd3d584b82bdc76e7f70",  # x04
        "39ab3d6d8e39d79ac313cba6ee13bef81dc100029939e5fd8aa0e108a8971fc1",  # x14
        "ba12986178809fe35b95c9dc9a0779ea2b77dbf82181b736c4594ce3807e5ca3",  # x24
        "7d1101cb316f49c67d2a1b6d1492d0aca6cde2da0635551d68db9e431e84d2d2",  # x05
        "ebb3947e1d5fdee35e4dc5415e6aa9667088edd383ebc48c46d32170b3166fcd",  # x15
        "9572e07e9c5e60bf543e3de37c64204120c0b983c18735504cb5cf3d54888036",  # x25
        "00d2bb20be5e13e1ee90bf06a7cf8d2c60c897498581ce1b3d32a61fcb5ffaa0",  # x06
        "8160137dd30a303ca6a7f80b210791f923864a78bc54a77e1270b54f0d66a249",  # x16
        "36e9cf9517d8b5d08a01c3370973f102d8b5e9d6338966ce134067bc5bdf7b28",  # x26
        "b5231cf012b4be109c6ac583dd7df5c7f69e90f5577887a1198e17145012ada0",  # x07
        "9077cfaf4903336f0f577304fd34f50b9b189f933cd73481b15b9c795f5787b4",  # x17
        "6003ac31416b74b3634b79039ff162e5ad28e7046eb1a62c98603bc8a66e9ecc",  # x27
        "936208b5f008e9ac9220ec4796baa9140f005fe8e8232a9f4feb6eaf4e0bd391",  # x08
        "1589a3fcc87387b28cc99410a59ee8b1b73bd0ec51d055da65b4bea466dbc3e2",  # x18
        "e288c8a07531a9814427f7f10addcbd0a254f7a39c2d89015c544fb12d958718",  # x28
    ],
}


def scan_digest(orbits, phi):
    code, out = run_cli(["scan", "--orbits", str(orbits), "--top", "2600", "--phi", phi])
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("orbits", [1, 2, 3])
def test_full_scans_are_pinned(orbits):
    # Every maximum, tie order and violation count of every full scan.
    for phi, digest in zip(LABELS, SCAN_SHA256[orbits]):
        assert scan_digest(orbits, phi) == digest, phi


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
            assert scan_digest(orbits, phi) == SCAN_SHA256[orbits][LABELS.index(phi)], (orbits, phi)
    multisets, _, _, lambdas, _ = standard_context().class_tables.multisets(1)
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
    for j, label in enumerate(LABELS):
        assert scan_digest(1, label) == SCAN_SHA256[1][j], label
    multisets, _, _, lambdas, _ = ctx.class_tables.multisets(1)
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


def test_parser_keeps_no_state():
    # The parser is shared by every main() call in a process, so an earlier
    # command's options must not change a later command's defaults.
    spec = "x01:x14,x01:x07,x01:x15"
    later = [["scan", "--orbits", "1"], ["analyze", "--pairs", spec]]
    first = [fresh_python(["-m", "s4bell.cli", *argv], capture_output=True, text=True,
                          check=True).stdout for argv in later]
    run_cli(["scan", "--orbits", "3", "--top", "5", "--phi", "x12"])
    run_cli(["analyze", "--pairs", "x01:x23,x01:x16", "--json"])
    assert [run_cli(argv) for argv in later] == [(0, out) for out in first]


def test_verify_fails_a_nan_direct_spectrum(monkeypatch):
    monkeypatch.setattr(cli, "eigenvalues_direct",
                        lambda matrix: (np.full(9, np.nan), np.full(9, np.nan)))
    lines = []
    assert run_verification(echo=lines.append) is False
    for name in ("I", "II", "III"):
        line, = [x for x in lines if f"case {name}: componentwise and direct" in x]
        assert line.startswith("FAIL") and "max deviation nan" in line


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
