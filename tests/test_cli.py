import json

import pytest

from jetalg.cli import main


def run(argv, capsys):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def poly_dir(tmp_path, capsys):
    out = tmp_path / "poly"
    code, _, _ = run(["gen", "poly-example", "--q1", 2, "--q2", 3,
                      "--D", 2, "--N", 3, "--outdir", out], capsys)
    assert code == 0
    return out


def test_full_pipeline_exits_zero(poly_dir, tmp_path, capsys):
    """gen, then qcl, then a kind-pinned check: the documented happy path."""
    limit = tmp_path / "limit.json"
    code, _, _ = run(["deform", "qcl", poly_dir / "poly-jet.json",
                      "-o", limit], capsys)
    assert code == 0
    code, out, _ = run(["check", limit, "--kind", "post-poisson"], capsys)
    assert code == 0
    assert "PASS" in out


def test_check_rejects_wrong_kind(poly_dir, tmp_path, capsys):
    code, _, err = run(["check", poly_dir / "poly-structure.json",
                        "--kind", "post-poisson"], capsys)
    assert code == 2
    assert "kind" in err


def test_perturbed_file_exits_one_and_names_the_failure(poly_dir, tmp_path,
                                                        capsys):
    raw = json.loads((poly_dir / "poly-structure.json").read_text())
    # a degree-dropping product x1*x1 = x1 breaks associativity visibly
    raw["ops"]["dot"].append([0, 0, 0, "1"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, _ = run(["check", bad], capsys)
    assert code == 1
    assert "FAIL" in out
    assert "fails on (" in out


def test_json_reports_are_deterministic(poly_dir, capsys):
    code, out1, _ = run(["check", poly_dir / "poly-structure.json",
                         "--format", "json"], capsys)
    assert code == 0
    code, out2, _ = run(["check", poly_dir / "poly-structure.json",
                         "--format", "json"], capsys)
    assert out1 == out2
    parsed = json.loads(out1)
    assert parsed["passed"] is True


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(["check", tmp_path / "absent.json"], capsys)
    assert code == 2
    assert "input error" in err


def test_derive_matches_generated_jet(poly_dir, tmp_path, capsys):
    out = tmp_path / "derived.json"
    code, _, _ = run(["deform", "derive", poly_dir / "poly-structure.json",
                      "--derivations", poly_dir / "poly-derivations.json",
                      "-N", 3, "-o", out], capsys)
    assert code == 0
    assert json.loads(out.read_text()) == json.loads(
        (poly_dir / "poly-jet.json").read_text())


def test_deform_check_subcommand(poly_dir, capsys):
    code, out, _ = run(["deform", "check", poly_dir / "poly-jet.json"], capsys)
    assert code == 0
    assert "PASS" in out


def test_oop_pipeline(poly_dir, tmp_path, capsys):
    code, _, _ = run(["oop", "check", poly_dir / "poly-operator.json"], capsys)
    assert code == 0
    code, _, _ = run(["oop", "deform-check", poly_dir / "poly-operator.json",
                      poly_dir / "poly-base-jet.json",
                      "--module-jet", "regular"], capsys)
    assert code == 0
    split = tmp_path / "split.json"
    code, out, _ = run(["oop", "induce", poly_dir / "poly-operator.json",
                        "-o", split], capsys)
    assert code == 0
    assert json.loads(split.read_text()) == json.loads(
        (poly_dir / "poly-structure.json").read_text())


def test_ybe_construct_lists_eight_tensors(poly_dir, tmp_path, capsys):
    sol = tmp_path / "sol"
    code, out, _ = run(["ybe", "construct", "--source", "tri-aybe",
                        poly_dir / "poly-structure.json", "--outdir", sol],
                       capsys)
    assert code == 0
    assert out.count("residual zero") == 8
    code, _, _ = run(["ybe", "residual", "--kind", "aybe",
                      sol / "alpha1-plus.json", sol / "ambient.json"], capsys)
    assert code == 0


def test_ybe_transfer_via_files(poly_dir, tmp_path, capsys):
    sol = tmp_path / "sol"
    code, _, _ = run(["ybe", "construct", "--source", "tri-aybe",
                      poly_dir / "poly-structure.json",
                      "--jet", poly_dir / "poly-jet.json",
                      "--outdir", sol], capsys)
    assert code == 0
    code, out, _ = run(["ybe", "transfer", sol / "alpha1-plus.json",
                        sol / "ambient-jet.json"], capsys)
    assert code == 0
    code, out, _ = run(["ybe", "transfer", sol / "alpha1-plus.json",
                        sol / "ambient-jet.json", "--invariance-only"], capsys)
    assert code == 0


def test_diagram_verify_subcommand(capsys):
    code, out, _ = run(["diagram", "verify", "pro-diaid",
                        "--D", 2, "--N", 2], capsys)
    assert code == 0
    assert "PASS" in out


def test_gen_product_shift_with_internal_base(tmp_path, capsys):
    out = tmp_path / "shift"
    code, _, _ = run(["gen", "product-shift", "--base-D", 2, "-n", 2,
                      "--outdir", out], capsys)
    assert code == 0
    code, _, _ = run(["check", out / "product-shift.json",
                      "--kind", "tridendriform"], capsys)
    assert code == 0


def test_module_check_subcommand(poly_dir, tmp_path, capsys):
    from jetalg import load_structure, regular_bimodule, save_module
    from jetalg.structures import StructurePresentation

    trid = load_structure(poly_dir / "poly-structure.json")
    base = StructurePresentation(trid.space, {"circ": trid.op("dot")},
                                 "commutative-associative")
    mfile = tmp_path / "m.json"
    save_module(regular_bimodule(base), mfile)
    code, out, _ = run(["module", "check", mfile], capsys)
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("argv", [
    ["gen", "product-shift", "-n", "2", "--base-D", "2", "--outdir", "{d}"],
    ["gen", "poly-example", "--D", "2", "--N", "1", "--outdir", "{d}"],
    ["deform", "derive", "{d}/s.json", "--derivations", "{d}/d.json", "-N", "1",
     "-o", "{d}/j.json"],
    ["deform", "qcl", "{d}/j.json", "-o", "{d}/l.json"],
], ids=["product-shift", "poly-example", "derive", "qcl"])
def test_file_writers_take_no_format_flag(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([a.format(d=tmp_path) for a in argv] + ["--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
