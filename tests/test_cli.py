import json
import os

import pytest

from abtqft.cli import main


SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


def sample(name):
    return os.path.join(SAMPLES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_smith(capsys):
    code, out, _ = run(capsys, "group", "smith", sample("matrix.json"))
    assert code == 0
    assert out.splitlines()[0] == "D = diag(2,4)"


def test_group_pullback(capsys):
    code, out, _ = run(capsys, "group", "pullback",
                       sample("times2.json"), sample("times3.json"))
    assert code == 0
    assert out.splitlines()[0] == "P = Z, gen (3,2)"


def test_group_kernel_and_iso(capsys):
    code, out, _ = run(capsys, "group", "kernel", sample("proj24.json"))
    assert code == 0
    assert "ker = Z" in out and "[[24]]" in out
    code, out, _ = run(capsys, "group", "iso", sample("times2.json"))
    assert code == 0 and out.strip() == "false"


def test_group_solve(capsys):
    code, out, _ = run(capsys, "group", "solve", sample("proj24.json"), "7")
    assert code == 0 and out.strip() == "x = (7)"
    code, out, _ = run(capsys, "group", "solve", sample("times2.json"), "3")
    assert code == 0 and out.strip() == "absent"


def test_cat_hom(capsys):
    code, out, _ = run(capsys, "cat", "hom", sample("times2.json"), "0", "3")
    assert code == 0 and out.strip() == "empty"
    code, out, _ = run(capsys, "cat", "hom", sample("times2.json"), "0", "4")
    assert code == 0
    assert "particular = (2)" in out


def test_cat_hofiber_and_xi(capsys):
    code, out, _ = run(capsys, "cat", "hofiber", sample("mirror24.json"))
    assert code == 0 and "object group = Z^2" in out
    code, out, _ = run(capsys, "cat", "xi", sample("mirror24.json"))
    assert code == 0
    assert out.splitlines()[0] == \
        "equivalence: true; target: ker = Z (gen (24))"


def test_geo_chern_tangent(capsys):
    code, out, _ = run(capsys, "geo", "chern", "builtin:icosahedron",
                       "tangent")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "geo", "chern", "builtin:genus2", "tangent")
    assert code == 0 and out.strip() == "-2"


def test_geo_chern_from_mesh_file(tmp_path, capsys):
    from abtqft.discrete import icosahedron
    path = tmp_path / "icosa.json"
    path.write_text(json.dumps(icosahedron().to_json()))
    code, out, _ = run(capsys, "geo", "chern", str(path), "tangent")
    assert code == 0 and out.strip() == "2"


def test_geo_stokes(capsys):
    code, out, _ = run(capsys, "geo", "stokes", sample("mesh_square.json"),
                       sample("cochain1.json"))
    assert code == 0
    assert out.splitlines()[-1] == "gap = 0"


def test_geo_holonomy(capsys):
    code, out, _ = run(capsys, "geo", "holonomy", sample("mesh_square.json"),
                       sample("conn_square.json"), "--loop", "0,1,2,3")
    assert code == 0
    assert out.strip() == "holonomy = exp(2*pi*i * 0.5)"


def test_geo_holonomy_open_loop_exit_2(capsys):
    code, _, err = run(capsys, "geo", "holonomy", sample("mesh_square.json"),
                       sample("conn_square.json"), "--loop", "0")
    assert code == 2
    assert "mesh_square.json" in err and "--loop" in err
    assert "not closed" in err


def test_geo_holonomy_missing_edge_exit_2(capsys):
    code, _, err = run(capsys, "geo", "holonomy", sample("mesh_square.json"),
                       sample("conn_square.json"), "--loop", "99")
    assert code == 2
    assert "mesh_square.json" in err and "--loop" in err
    assert "index 99" in err


def test_bnr_cs_refine_0_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bnr", "cs", "--refine", "0"])
    assert exc.value.code == 2
    assert "--refine" in capsys.readouterr().err


def test_cat_hom_wrong_arity_exit_2(capsys):
    code, _, err = run(capsys, "cat", "hom", sample("times2.json"), "0,1", "4")
    assert code == 2
    assert "times2.json" in err and "argument a" in err
    assert "2 coordinates" in err


def test_bnr_psi_scene(capsys):
    code, out, _ = run(capsys, "bnr", "psi", sample("scene_s3.json"))
    assert code == 0
    assert out.splitlines()[0] == \
        "raw=1 int=1 mod24=1 convention=psi(S3-Lie,D4-flat)=+1"


def test_bnr_psi_certify(capsys):
    code, out, _ = run(capsys, "bnr", "psi", sample("scene_s3.json"),
                       "--certify")
    assert code == 0
    assert any("diff=-24" in line for line in out.splitlines())


def test_bnr_psi_builtin(capsys):
    code, out, _ = run(capsys, "bnr", "psi", "--builtin", "s3-lie")
    assert code == 0 and "int=1" in out


def test_bnr_su_scene(capsys):
    code, out, _ = run(capsys, "bnr", "su", sample("scene_su.json"))
    assert code == 0
    assert out.splitlines()[0] == "raw=1 int=1 mod2=1 convention=su-lifts"
    assert any("diff=-2" in line for line in out.splitlines())


def test_bnr_table(capsys):
    code, out, _ = run(capsys, "bnr", "table", "validate")
    assert code == 0 and out.splitlines()[-1] == "valid"


def test_json_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "bnr", "psi",
                       sample("scene_s3.json"))
    assert code == 0
    data = json.loads(out)
    assert data["integer"] == 1 and data["residue"] == 1


def test_determinism(capsys):
    _, out1, _ = run(capsys, "bnr", "psi", sample("scene_s3.json"),
                     "--certify")
    _, out2, _ = run(capsys, "bnr", "psi", sample("scene_s3.json"),
                     "--certify")
    assert out1 == out2
    _, out1, _ = run(capsys, "geo", "chern", "builtin:flip-torus", "tangent")
    _, out2, _ = run(capsys, "geo", "chern", "builtin:flip-torus", "tangent")
    assert out1 == out2


def test_record_reproducible(tmp_path, capsys):
    rec1, rec2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(capsys, "bnr", "psi", sample("scene_s3.json"), "--record", str(rec1))
    run(capsys, "bnr", "psi", sample("scene_s3.json"), "--record", str(rec2))
    assert rec1.read_bytes() == rec2.read_bytes()
    rec = json.loads(rec1.read_text())
    assert rec["command"] == ["bnr", "psi", sample("scene_s3.json")]
    assert rec["convention"].startswith("psi(")


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "group", "smith", "no-such-file.json")
    assert code == 2
    assert "no-such-file.json" in err


def test_bad_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "group", "smith", str(bad))
    assert code == 2
    assert "bad.json" in err and "invalid JSON" in err


def test_dangling_reference_named(tmp_path, capsys):
    f = tmp_path / "dangling.json"
    f.write_text(json.dumps({
        "groups": {"G": {"generators": 1, "relations": []}},
        "morphisms": {"f": {"matrix": [[1]], "source": "G", "target": "H"}},
    }))
    code, _, err = run(capsys, "group", "iso", str(f))
    assert code == 2
    assert "dangling.json" in err
    assert "morphisms.f.target" in err and "'H'" in err


def test_open_mesh_exit_2(tmp_path, capsys):
    # a grid is not closed, so the tangent transport cannot be built
    mesh = tmp_path / "open.json"
    from abtqft.discrete import triangulated_grid
    grid = triangulated_grid(2, 2)
    rec = grid.to_json()
    rec["edge_lengths"] = [1.0] * grid.n_cells[1]
    mesh.write_text(json.dumps(rec))
    for verb in ("chern", "holonomy"):
        code, _, err = run(capsys, "geo", verb, str(mesh), "tangent")
        assert code == 2
        assert "open.json" in err and "boundary edge" in err


def test_degenerate_mesh_exit_2(tmp_path, capsys):
    from abtqft.discrete import icosahedron
    rec = icosahedron().to_json()
    rec["edge_lengths"][0] = 10.0
    mesh = tmp_path / "flat.json"
    mesh.write_text(json.dumps(rec))
    code, _, err = run(capsys, "geo", "chern", str(mesh), "tangent")
    assert code == 2
    assert "flat.json" in err and "triangle inequality" in err


def test_nan_edge_length_exit_2(tmp_path, capsys):
    from abtqft.discrete import icosahedron
    rec = icosahedron().to_json()
    rec["edge_lengths"][3] = float("nan")
    mesh = tmp_path / "nan.json"
    mesh.write_text(json.dumps(rec))
    code, _, err = run(capsys, "geo", "chern", str(mesh), "tangent")
    assert code == 2
    assert "nan.json" in err and "edge 3" in err and "non-finite" in err


def test_nan_edge_turn_exit_2(tmp_path, capsys):
    with open(sample("conn_square.json")) as fh:
        rec = json.load(fh)
    rec["edge_phases"][1] = float("inf")
    conn = tmp_path / "conn.json"
    conn.write_text(json.dumps(rec))
    code, _, err = run(capsys, "geo", "holonomy", sample("mesh_square.json"),
                       str(conn))
    assert code == 2
    assert "conn.json" in err and "edge 1" in err and "non-finite" in err


def test_ill_defined_morphism_in_file_exit_2(tmp_path, capsys):
    f = tmp_path / "bad_mor.json"
    f.write_text(json.dumps({
        "matrix": [[1]],
        "source": {"generators": 1, "relations": [[2]]},
        "target": {"generators": 1, "relations": [[3]]},
    }))
    code, _, err = run(capsys, "group", "iso", str(f))
    assert code == 2
    assert "bad_mor.json" in err


def test_suite_acceptance_listed():
    from abtqft.acceptance import CRITERIA
    assert len(CRITERIA) == 11
