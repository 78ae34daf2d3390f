import json
from fractions import Fraction

import pytest

from jetalg import (
    AxiomFailure,
    AxiomReport,
    FileFormatError,
    LinearMap,
    OOperatorSpec,
    load_deformation,
    load_derivations,
    load_module,
    load_operator,
    load_structure,
    load_tensor,
    regular_bimodule,
    report_to_dict,
    save_deformation,
    save_derivations,
    save_module,
    save_operator,
    save_structure,
    save_tensor,
    check_structure,
    truncated_polynomial_algebra,
    unsharp,
)
from jetalg.cli import _emit, main
from jetalg.structures import StructurePresentation


def comm_base(poly):
    return StructurePresentation(
        poly.space, {"circ": poly.presentation.op("dot")},
        "commutative-associative")


def test_structure_round_trip(tmp_path, poly2):
    path = tmp_path / "s.json"
    save_structure(poly2.presentation, path)
    assert load_structure(path) == poly2.presentation


def test_saves_are_deterministic(tmp_path, poly2):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_structure(poly2.presentation, a)
    save_structure(poly2.presentation, b)
    assert a.read_bytes() == b.read_bytes()


def test_deformation_round_trip(tmp_path, poly2):
    path = tmp_path / "j.json"
    save_deformation(poly2.jet, path)
    assert load_deformation(path) == poly2.jet


def test_module_round_trip(tmp_path, poly2):
    m = regular_bimodule(comm_base(poly2))
    path = tmp_path / "m.json"
    save_module(m, path)
    assert load_module(path) == m


def test_module_with_base_reference(tmp_path, poly2):
    base = comm_base(poly2)
    save_structure(base, tmp_path / "base.json")
    m = regular_bimodule(base)
    save_module(m, tmp_path / "m.json", base_ref="base.json")
    raw = json.loads((tmp_path / "m.json").read_text())
    assert raw["base"] == "base.json"
    assert load_module(tmp_path / "m.json") == m


def test_operator_round_trip(tmp_path, poly2):
    spec = OOperatorSpec(poly2.operator, Fraction(1),
                         regular_bimodule(comm_base(poly2)))
    path = tmp_path / "op.json"
    save_operator(spec, path)
    assert load_operator(path) == spec


def test_tensor_round_trip(tmp_path, poly2):
    from jetalg import TensorElement

    sq = poly2.space
    flat = TensorElement(sq, sq, unsharp(LinearMap.identity(sq)).matrix)
    path = tmp_path / "t.json"
    save_tensor(flat, path)
    assert load_tensor(path, sq) == flat


def test_derivations_round_trip(tmp_path, poly2):
    path = tmp_path / "d.json"
    save_derivations(poly2.derivations, path)
    back = load_derivations(path, poly2.space)
    assert back.d1 == poly2.derivations.d1
    assert back.d2 == poly2.derivations.d2


def test_zero_denominator_is_named(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 1, "basis": ["e"], "kind": "associative",
        "ops": {"circ": [[0, 0, 0, "1/0"]]},
    }))
    with pytest.raises(FileFormatError, match="circ"):
        load_structure(path)


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 1,\n  "basis": [}\n')
    with pytest.raises(FileFormatError, match="line 2"):
        load_structure(path)


def test_missing_role_listed(tmp_path):
    p = truncated_polynomial_algebra(2)
    path = tmp_path / "s.json"
    save_structure(p, path)
    raw = json.loads(path.read_text())
    raw["kind"] = "dendriform"
    raw["ops"]["succ"] = raw["ops"].pop("circ")
    path.write_text(json.dumps(raw))
    with pytest.raises(FileFormatError, match="prec"):
        load_structure(path)


def test_out_of_range_index_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 2, "basis": ["a", "b"], "kind": "associative",
        "ops": {"circ": [[0, 0, 5, "1"]]},
    }))
    with pytest.raises(FileFormatError):
        load_structure(path)


def test_duplicate_entry_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 2, "basis": ["a", "b"], "kind": "associative",
        "ops": {"circ": [[0, 0, 1, "1"], [0, 0, 1, "2"]]},
    }))
    with pytest.raises(FileFormatError, match="duplicate"):
        load_structure(path)


def test_report_dict_carries_labels_and_residuals():
    p = truncated_polynomial_algebra(2)
    from jetalg import BilinearOp

    bump = BilinearOp.from_entries(p.space, p.space, p.space,
                                   [(0, 1, 0, Fraction(1, 3))])
    bad = StructurePresentation(p.space, {"circ": p.op("circ").add(bump)},
                                p.kind)
    rep = check_structure(bad)
    d = report_to_dict(rep, p.space)
    assert d["passed"] is False
    assert d["checked"] == ["Comm", "Assoc"]
    first = d["failures"][0]
    assert set(first) >= {"axiom", "indices", "residual"}
    assert first["labels"]
    # deterministic and round-trippable through json
    assert json.loads(json.dumps(d)) == d


def _structure(**changes):
    raw = {"dim": 2, "basis": ["a", "b"], "kind": "associative",
           "ops": {"circ": [[0, 0, 1, "1"]]}}
    raw.update(changes)
    return raw


def _module(**changes):
    raw = {"dim": 1, "basis": ["v"], "base": _structure(), "ops": {"dot": []},
           "actions": {"left": [[["0"]], [["0"]]], "right": [[["0"]], [["0"]]]}}
    raw.update(changes)
    return raw


COMMANDS = {load_structure: ["check"], load_deformation: ["deform", "check"],
            load_module: ["module", "check"]}


@pytest.mark.parametrize("raw, loader", [
    (_structure(ops={"circ": [[0, 0, 1, "1e3"]]}), load_structure),
    (_structure(ops={"circ": [[0, 0, 1, "2.5"]]}), load_structure),
    (_structure(ops={"circ": [[0, 0, 1, True]]}), load_structure),
    (_structure(dim=True, basis=["a"], ops={"circ": []}), load_structure),
    (_structure(basis=["a", "a"]), load_structure),
    (_structure(ops={"circ": [[0, True, 1, "1"]]}), load_structure),
    ({"dim": 1, "basis": ["e"], "kind": "associative", "order": True,
      "layers": {"circ": [[], []]}}, load_deformation),
    (_structure(kind=["x"]), load_structure),
    ({"dim": 1, "basis": ["e"], "kind": {}, "order": 0,
      "layers": {"circ": [[]]}}, load_deformation),
    (_module(ops=[["dot"]]), load_module),
    (_module(ops=1), load_module),
], ids=["exponent", "decimal", "bool-scalar", "bool-dim", "duplicate-label",
        "bool-index", "bool-order", "list-kind", "object-kind", "list-module-ops",
        "int-module-ops"])
def test_loaders_reject_what_the_format_forbids(tmp_path, capsys, raw, loader):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(FileFormatError):
        loader(path)
    assert main(COMMANDS[loader] + [str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_the_module_loader_fixture_is_valid(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(_module()))
    assert load_module(path).carrier.dim == 1


def test_text_residuals_serialize_and_exit_one(capsys):
    report = AxiomReport(False, (AxiomFailure("step", (), {0: "1 != 2"}),),
                         ("step",), "diagram")
    assert report_to_dict(report)["failures"][0]["residual"] == {"0": "1 != 2"}
    assert _emit(report, "json") == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False
