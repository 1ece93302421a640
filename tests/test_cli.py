import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abtqft.cli import main


ROOT = os.path.join(os.path.dirname(__file__), "..")
SAMPLES = os.path.join(ROOT, "samples")
with open(os.path.join(ROOT, "perfbench", "golden.json")) as _fh:
    GOLDEN = json.load(_fh)


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
    # the square's boundary, and with signed tokens its diagonal crossed
    # both ways
    for loop in ("0,1,2,3", "+0,+1,-4,+4,2,3"):
        code, out, _ = run(capsys, "geo", "holonomy",
                           sample("mesh_square.json"),
                           sample("conn_square.json"), "--loop", loop)
        assert code == 0
        assert out.strip() == "holonomy = exp(2*pi*i * 0.5)"


def test_geo_holonomy_default_loop_not_closed_exit_2(capsys):
    # the default loop is every edge once, which is not a cycle here
    for argv in ([sample("mesh_square.json"), sample("conn_square.json")],
                 ["builtin:icosahedron", "tangent"]):
        code, _, err = run(capsys, "geo", "holonomy", *argv)
        assert code == 2
        assert argv[0] in err and "pass --loop" in err


def test_geo_holonomy_default_loop_on_circle(tmp_path, capsys):
    from abtqft.discrete import circle_complex
    mesh, conn = tmp_path / "circle.json", tmp_path / "conn.json"
    mesh.write_text(json.dumps(circle_complex(3).to_json()))
    conn.write_text(json.dumps({"edge_phases": [0.125, 0.25, 0.5]}))
    code, out, _ = run(capsys, "geo", "holonomy", str(mesh), str(conn))
    assert code == 0
    assert out.strip() == "holonomy = exp(2*pi*i * 0.875)"


def test_geo_holonomy_open_loop_exit_2(capsys):
    code, _, err = run(capsys, "geo", "holonomy", sample("mesh_square.json"),
                       sample("conn_square.json"), "--loop", "0")
    assert code == 2
    assert "mesh_square.json" in err and "--loop" in err
    assert "not closed" in err


@pytest.mark.parametrize("circle", [True, False], ids=["circle", "square"])
def test_geo_holonomy_empty_loop_exit_2(tmp_path, capsys, circle):
    # an empty --loop is a loop with one empty token, not the default loop
    mesh, conn = sample("mesh_square.json"), sample("conn_square.json")
    if circle:
        from abtqft.discrete import circle_complex
        mesh, conn = tmp_path / "circle.json", tmp_path / "conn.json"
        mesh.write_text(json.dumps(circle_complex(3).to_json()))
        conn.write_text(json.dumps({"edge_phases": [0.125, 0.25, 0.5]}))
    code, out, err = run(capsys, "geo", "holonomy", str(mesh), str(conn),
                         "--loop", "")
    assert (code, out) == (2, "")
    assert err == f"input error: {mesh}: --loop : bad loop token ''\n"


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


def test_bnr_cs_refine_above_bound_exit_2(capsys):
    from abtqft.cli import build_parser
    from abtqft.invariants.chern_simons import MAX_REFINEMENT
    assert build_parser().parse_args(["bnr", "cs", "--refine", "4"]).refine == 4
    with pytest.raises(SystemExit) as exc:
        main(["bnr", "cs", "--refine", str(MAX_REFINEMENT + 1)])
    assert exc.value.code == 2
    assert f"--refine: {MAX_REFINEMENT + 1} is not in" in capsys.readouterr().err


def test_scene_refinement_above_bound_exit_2(tmp_path, capsys):
    from abtqft.invariants.chern_simons import MAX_REFINEMENT
    path = tmp_path / "scene_refine.json"
    path.write_text(json.dumps(_s3("eta", provider="quadrature",
                                   params={"refinement": MAX_REFINEMENT + 1})))
    code, _, err = run(capsys, "bnr", "psi", str(path))
    assert code == 2, err
    assert err.startswith(f"input error: {path}: ")
    assert "eta.params.refinement" in err and "Traceback" not in err


def test_cat_hom_wrong_arity_exit_2(capsys):
    code, _, err = run(capsys, "cat", "hom", sample("times2.json"), "0,1", "4")
    assert code == 2
    assert "times2.json" in err and "argument a" in err
    assert "2 coordinates" in err


def test_cat_hom_non_integer_coordinates_exit_2(capsys):
    code, out, err = run(capsys, "cat", "hom", sample("times2.json"), "0",
                         "x")
    assert (code, out) == (2, "")
    assert err == (f"input error: {sample('times2.json')}: argument b: "
                   "coordinates 'x' must be comma-separated integers\n")


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


S3 = {"m3": {"key": "S3"}, "eta": {"key": "Lie-framing"},
      "w4": {"key": "D4"}, "nabla": {"key": "flat-extension"}}


def _s3(block, **fields):
    return {**S3, block: {**S3[block], **fields}}


SU = {"primary": {"mesh": "icosahedron", "puncture": 0},
      "boundings": [{"mesh": "pent-sphere", "puncture": 0}]}


@pytest.mark.parametrize("verb, scene, field", [
    ("psi", {k: v for k, v in S3.items() if k != "nabla"}, "'nabla'"),
    ("psi", _s3("eta", key="Spin-framing"), "'Spin-framing'"),
    ("psi", _s3("eta", provider="oracle"), "eta.provider"),
    ("psi", _s3("eta", provider="quadrature", params={"refinement": 0}),
     "eta.params.refinement"),
    ("psi", _s3("nabla", params={"glue": ["CP2"]}),
     "nabla.params.glue[0]: expected a spin"),
    ("psi", _s3("nabla", params={"glue": "K3"}), "nabla.params.glue"),
    ("psi", {**S3, "m3": "S3"}, "m3"),
    ("psi", _s3("eta", compatible=True), "compatibility flag"),
    ("psi", {"union": [S3, {"union": "S3"}]}, "union"),
    ("su", {"su": {}}, "su.primary"),
    ("su", {"su": {**SU, "primary": {"mesh": "klein"}}}, "su.primary.mesh"),
    ("su", {"su": {**SU, "primary": {"mesh": "icosahedron", "puncture": 99}}},
     "su.primary.puncture"),
    ("su", {"su": {**SU, "lift_shifts": [[0, 0.5]]}}, "su.lift_shifts[0][1]"),
    ("su", {"su": {**SU, "lift_shifts": [[99, 1]]}}, "su.lift_shifts[0][0]"),
    ("su", {"su": {**SU, "boundings": [{"mesh": "hex-sphere"}]}},
     "boundary length"),
    ("su", {"su": {**SU, "boundings": [{"kind": "sphere",
                                        "mesh": "pent-sphere"}]}},
     "su.boundings[0].kind"),
    ("su", {"su": {**SU, "lift_shifts": [[0, 10**400]]}},
     "su.lift_shifts[0][1]"),
    ("su", {"su": {**SU, "boundings": [{"kind": "disk", "lift": 10**400}]}},
     "su.boundings[0].lift"),
    # each shift fits a float, their sum would not
    ("su", {"su": {**SU, "lift_shifts": [[0, 10**308], [1, 10**308]]}},
     "su.lift_shifts[0][1]"),
    ("su", {"su": {**SU, "boundings": [{"kind": "disk", "lift": 2**53 + 1}]}},
     "su.boundings[0].lift"),
    ("su", {"su": {**SU, "primary": 3}}, "su.primary: expected an object"),
    ("su", {"su": {**SU, "boundings": [5]}},
     "su.boundings[0]: expected an object"),
    ("psi", {**S3, "w4": {"key": "empty"}, "nabla": {"key": "empty"}},
     "nabla.key: expected a bounding datum of ('S3', 'Lie-framing')"),
    ("psi", {"union": [S3, _s3("nabla", key="empty")]},
     "union[1].nabla.key: expected a bounding datum"),
    ("su", {"su": {**SU, "boundings": [*SU["boundings"],
                                       {"mesh": "oct-sphere",
                                        "puncture": 1}]}},
     "su.boundings[1]: expected boundary length 5 "),
    ("su", {"su": {**SU, "lift_shifts": [[-1, 1]]}},
     "su.lift_shifts[0][0]: expected an edge in 0..4, got -1"),
    # a float that holds 2**52 exactly no longer holds the lift's fraction
    ("su", {"su": {**SU, "lift_shifts": [[0, 2**52]]}},
     "su.lift_shifts[0][1]: expected a shift that keeps the fraction of "
     "lift 0"),
])
def test_bad_scene_exit_2(tmp_path, capsys, verb, scene, field):
    path = tmp_path / "bad_scene.json"
    path.write_text(json.dumps(scene))
    code, _, err = run(capsys, "bnr", verb, str(path))
    assert code == 2, err
    assert err.startswith(f"input error: {path}: ") and field in err
    assert "Traceback" not in err


def test_bnr_psi_quadrature_sign_fault_exit_1(tmp_path, capsys, monkeypatch):
    # a quadrature of the wrong sign is a fault of the program or its
    # data, not of the scene file
    from abtqft.invariants import scenes
    monkeypatch.setitem(scenes._cs_cache, 1, 1.0)
    path = tmp_path / "scene_q1.json"
    path.write_text(json.dumps(
        _s3("eta", provider="quadrature", params={"refinement": 1})))
    code, _, err = run(capsys, "bnr", "psi", str(path))
    assert code == 1, err
    assert err.startswith("computation error: ") and "sign" in err


def test_bnr_psi_union_of_quadrature_components(tmp_path, capsys):
    # each component is gated on its own, so two refine-1 quadratures
    # (each 6.4e-7 from 1) give 2, not a non-integral error
    q1 = _s3("eta", provider="quadrature", params={"refinement": 1})
    path = tmp_path / "scene_union_q1.json"
    path.write_text(json.dumps({"union": [q1, q1]}))
    code, out, err = run(capsys, "bnr", "psi", str(path))
    assert code == 0, err
    assert " int=2 mod24=2 " in out.splitlines()[0]


@pytest.mark.parametrize("record, field", [
    ({"generators": 2, "relations": [[1, 1.5]]}, "relations[0][1]"),
    ({"generators": True}, "generators"),
    ({"matrix": [[0, 0.5]], "source": {"generators": 2},
      "target": {"generators": 1}}, "matrix[0][1]"),
    ({"matrix": [], "source": {"generators": 2},
      "target": {"generators": 1}}, "matrix: empty"),
    ({"generators": -1}, "$: generators: expected an integer >= 0, got -1"),
    ({"generators": 2, "relations": [[1]]},
     "$: relations: expected rows of length 2, got 1"),
    ({"generators": 2, "relations": [[]]},
     "$: relations: expected rows of length 2, got 0"),
    ({"matrix": [[0, 0, 0]], "source": {"generators": 2},
      "target": {"generators": 1}},
     "$: matrix: expected a 1x2 matrix, got 1x3"),
    ({"groups": {"G": {"generators": -1}}},
     "groups.G: generators: expected an integer >= 0"),
    ({"matrix": [[1]], "source": {"generators": 1, "relations": [[1, 0]]},
      "target": {"generators": 1}},
     "source: relations: expected rows of length 1, got 2"),
])
def test_bad_group_file_exit_2(tmp_path, capsys, record, field):
    path = tmp_path / "bad_group.json"
    path.write_text(json.dumps(record))
    code, _, err = run(capsys, "group", "kernel", str(path))
    assert code == 2, err
    assert err.startswith(f"input error: {path}: ") and field in err
    assert "Traceback" not in err


def test_bnr_table(capsys):
    code, out, _ = run(capsys, "bnr", "table", "validate")
    assert code == 0 and out.splitlines()[-1] == "valid"


# the refinement-1 winding quadrature, in full
CS_REFINE_1 = -1.000000642552659


def test_json_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "bnr", "psi",
                       sample("scene_s3.json"))
    assert code == 0
    data = json.loads(out)
    assert data["integer"] == 1 and data["residue"] == 1
    # the text output rounds to 12 digits; json keeps the full float
    for argv, key, raw in (
            (["bnr", "psi", sample("scene_s3.json")], "raw", 1.0),
            (["bnr", "psi", sample("scene_s3_k3.json"), "--certify"], "raw",
             -22.99999983936189),
            (["bnr", "su", sample("scene_su.json")], "raw",
             0.9999999999999991),
            (["bnr", "cs", "--refine", "1"], "cs", CS_REFINE_1)):
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code == 0
        assert json.loads(out)[key] == raw
    code, out, _ = run(capsys, "bnr", "cs", "--refine", "1")
    assert (code, out.splitlines()[0]) == (0, f"cs = {CS_REFINE_1:.12g}")


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


def _bad_json_file(tmp_path, kind):
    bad = tmp_path / "bad.json"
    if kind == "syntax":
        bad.write_text("{not json")
    elif kind == "huge-int":
        bad.write_text('{"matrix": [[' + "1" * 5000 + "]]}")
    elif kind == "directory":
        bad.mkdir()
    elif kind == "nested":
        bad.write_text("[" * 100_000)
    else:
        bad.write_bytes(b'\xff\xfe{"matrix": [[1]]}')
    return str(bad)


@pytest.mark.parametrize("kind", ["syntax", "huge-int", "directory",
                                  "non-utf8", "nested"])
@pytest.mark.parametrize("verb", [["group", "smith"], ["geo", "stokes"]],
                         ids="-".join)
def test_bad_json_exit_2(tmp_path, capsys, verb, kind):
    argv = verb + [_bad_json_file(tmp_path, kind)]
    if verb[0] == "geo":
        argv.append(sample("cochain1.json"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and "bad.json" in err
    assert ("cannot read" if kind == "directory" else "invalid JSON") in err
    if kind == "nested":
        assert err == f"input error: {argv[2]}: invalid JSON (nested too " \
            "deeply)\n"


def test_deeply_nested_scene(tmp_path, capsys):
    # a union too deep for the JSON decoder is an input error; one it
    # decodes is flattened without recursion
    for depth, code in ((990, 2), (200, 0)):
        path = tmp_path / f"deep{depth}.json"
        path.write_text('{"union": [' * depth + json.dumps(S3) + "]}" * depth)
        got, out, err = run(capsys, "bnr", "psi", str(path))
        assert got == code, err
        if code:
            assert err == f"input error: {path}: invalid JSON (nested too " \
                "deeply)\n"
        else:
            assert out.startswith("raw=1 int=1 mod24=1 ")


@pytest.mark.parametrize("verb, name, text, data", [
    ("cokernel", "times2.json", "coker = Z/2", {"cokernel": "Z/2"}),
    ("image", "times2.json", "image = Z", {"image": "Z"}),
    ("cokernel", "proj24.json", "coker = 0", {"cokernel": "0"}),
    ("image", "proj24.json", "image = Z/24", {"image": "Z/24"}),
])
def test_group_cokernel_and_image(capsys, verb, name, text, data):
    assert run(capsys, "group", verb, sample(name)) == (0, text + "\n", "")
    code, out, _ = run(capsys, "--format", "json", "group", verb,
                       sample(name))
    assert code == 0 and json.loads(out) == data


def _times2_z4_to_z8(tmp_path):
    path = tmp_path / "times2_z4_z8.json"
    path.write_text(json.dumps({
        "matrix": [[2]], "source": {"generators": 1, "relations": [[4]]},
        "target": {"generators": 1, "relations": [[8]]}}))
    return str(path)


def test_cat_hom_oracle_on_finite_groups(tmp_path, capsys):
    code, out, _ = run(capsys, "cat", "hom", _times2_z4_to_z8(tmp_path),
                       "1", "3", "--oracle")
    assert code == 0
    assert out.splitlines() == ["particular = (1)",
                                "kernel generators = [[4]]", "oracle: agrees"]


def test_cat_hom_oracle_disagreement_exit_1(tmp_path, capsys, monkeypatch):
    from abtqft import testing
    monkeypatch.setattr(testing, "brute_hom_set", lambda phi, a, b: set())
    code, out, err = run(capsys, "cat", "hom", _times2_z4_to_z8(tmp_path),
                         "1", "3", "--oracle")
    assert (code, out) == (1, "")
    assert err == "computation error: hom-set oracle disagreement\n"


def test_cat_hom_oracle_memory_bounded_by_the_question(tmp_path):
    # Z/3000 -> Z/3000: the whole hom table has 9e6 pairs and outgrows the
    # cap, while one pass over the 3000 carriers keeps the 2 solutions
    path = tmp_path / "times2_z3000.json"
    group = {"generators": 1, "relations": [[3000]]}
    path.write_text(json.dumps({"matrix": [[2]], "source": group,
                                "target": group}))
    child = ("import resource, sys\n"
             "cap = 1 << 30\n"
             "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
             "from abtqft.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", child, "cat", "hom", str(path), "0", "4",
         "--oracle"], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["particular = (2)",
                                        "kernel generators = [[1500]]",
                                        "oracle: agrees"]


def test_cat_hom_oracle_skips_past_the_order_bound(tmp_path):
    # Z/10**12 -> Z/10**12: enumerating A_mor would pass any memory cap, so
    # the oracle is skipped, naming the bound, before anything is built
    path = tmp_path / "times2_z1e12.json"
    group = {"generators": 1, "relations": [[10 ** 12]]}
    path.write_text(json.dumps({"matrix": [[2]], "source": group,
                                "target": group}))
    child = ("import resource, sys\n"
             "cap = 1 << 30\n"
             "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
             "from abtqft.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", child, "cat", "hom", str(path), "0", "4",
         "--oracle"], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "particular = (2)", "kernel generators = [[500000000000]]",
        "oracle: skipped (|A_mor| > 1000000)"]


@pytest.mark.parametrize("bound, last", [
    (4, "oracle: agrees"), (3, "oracle: skipped (|A_mor| > 3)")])
def test_cat_hom_oracle_bound_is_inclusive(tmp_path, capsys, monkeypatch,
                                           bound, last):
    from abtqft import testing
    monkeypatch.setattr(testing, "ORACLE_MAX_ORDER", bound)
    code, out, _ = run(capsys, "cat", "hom", _times2_z4_to_z8(tmp_path),
                       "1", "3", "--oracle")
    assert (code, out.splitlines()[-1]) == (0, last)


def test_fault_without_message_is_named_by_its_class(capsys, monkeypatch):
    import abtqft.cli as cli

    def exhausted(args, ws):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_group_smith", exhausted)
    code, out, err = run(capsys, "group", "smith", sample("matrix.json"))
    assert (code, out) == (1, "")
    assert err == "computation error: MemoryError\n"


def test_record_closes_its_inputs(tmp_path):
    # an input hashed for --record and never closed warns under -X dev
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "abtqft.cli", "--record", str(tmp_path / "r.json"),
         "group", "smith", "samples/matrix.json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[0] == "D = diag(2,4)"


@pytest.mark.parametrize("argv, inputs", [
    (["geo", "stokes", "samples/mesh_square.json", "samples/cochain1.json"],
     ["samples/mesh_square.json", "samples/cochain1.json"]),
    (["geo", "holonomy", "samples/mesh_square.json",
      "samples/conn_square.json", "--loop", "0,1,2,3"],
     ["samples/mesh_square.json", "samples/conn_square.json"]),
    (["geo", "chern", "builtin:icosahedron", "tangent"], []),
])
def test_record_hashes_every_file_read(tmp_path, capsys, monkeypatch, argv,
                                       inputs):
    # the geo verbs read their mesh, cochain and connection files outside
    # the workspace; `builtin:` meshes and `tangent` are not files
    monkeypatch.chdir(ROOT)
    path = tmp_path / "r.json"
    code, _, err = run(capsys, "--record", str(path), *argv)
    assert code == 0, err
    record = json.loads(path.read_text())
    assert record["inputs"] == {
        name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
        for name in inputs}


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_record_unwritable_exit_2(tmp_path, capsys, where):
    path = tmp_path / "no-dir" / "r.json"
    if where == "directory":
        path = tmp_path / "r.json"
        path.mkdir()
    code, out, err = run(capsys, "--record", str(path), "group", "smith",
                         sample("matrix.json"))
    assert code == 2
    assert out.splitlines()[0] == "D = diag(2,4)"
    assert err.startswith("input error: ") and str(path) in err
    assert "cannot write record" in err


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
    # with a connection file, the Chern number's closed-surface check
    # names the mesh
    code, _, err = run(capsys, "geo", "chern", sample("mesh_square.json"),
                       sample("conn_square.json"))
    assert code == 2
    assert err == (f"input error: {sample('mesh_square.json')}: chern "
                   "number needs a closed surface (a 2-cycle)\n")
    # a mesh without faces is no closed surface, not the empty cycle
    from abtqft.discrete import circle_complex
    circle, conn = tmp_path / "circle.json", tmp_path / "conn.json"
    circle.write_text(json.dumps(circle_complex(3).to_json()))
    conn.write_text(json.dumps({"edge_phases": [0.1, 0.2, 0.3]}))
    code, out, err = run(capsys, "geo", "chern", str(circle), str(conn))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: {circle}: ")
    assert "closed surface" in err


def test_degenerate_mesh_exit_2(tmp_path, capsys):
    from abtqft.discrete import icosahedron
    rec = icosahedron().to_json()
    rec["edge_lengths"][0] = 10.0
    mesh = tmp_path / "flat.json"
    mesh.write_text(json.dumps(rec))
    code, _, err = run(capsys, "geo", "chern", str(mesh), "tangent")
    assert code == 2
    assert "flat.json" in err and "triangle inequality" in err


def test_negative_edge_length_exit_2(tmp_path, capsys):
    from abtqft.discrete import icosahedron
    rec = icosahedron().to_json()
    rec["edge_lengths"][0] = -1.0
    mesh = tmp_path / "negative.json"
    mesh.write_text(json.dumps(rec))
    for verb in ("chern", "holonomy"):
        code, out, err = run(capsys, "geo", verb, str(mesh), "tangent")
        assert code == 2 and out == ""
        assert err.startswith(f"input error: {mesh}: ")
        assert "edge 0 has non-positive length -1.0" in err


def test_nan_edge_length_exit_2(tmp_path, capsys):
    from abtqft.discrete import icosahedron
    rec = icosahedron().to_json()
    rec["edge_lengths"][3] = float("nan")
    mesh = tmp_path / "nan.json"
    mesh.write_text(json.dumps(rec))
    code, _, err = run(capsys, "geo", "chern", str(mesh), "tangent")
    assert code == 2
    assert "nan.json" in err and "edge_lengths[3]" in err and "finite" in err


with open(sample("mesh_square.json")) as _fh:
    SQUARE = json.load(_fh)
with open(sample("conn_square.json")) as _fh:
    CONN = json.load(_fh)


# a square disk and a triangle, each with edge lengths, whose faces the
# tables below replace
SQUARE_DISK = {"cells": {"0": 4, "1": 4, "2": 1},
               "boundary": {"1": [[[i, -1], [(i + 1) % 4, 1]]
                                  for i in range(4)]},
               "edge_lengths": [1.0] * 4}
TRIANGLE = {**SQUARE_DISK, "cells": {"0": 3, "1": 3, "2": 1},
            "boundary": {"1": [[[i, -1], [(i + 1) % 3, 1]]
                               for i in range(3)]},
            "edge_lengths": [1.0] * 3}


def _icosahedron_with_float_index():
    from abtqft.discrete import icosahedron
    rec = icosahedron().to_json()
    rec["boundary"]["1"][0][0][0] = float(rec["boundary"]["1"][0][0][0])
    return rec


def _icosahedron_with_lengths(value):
    from abtqft.discrete import icosahedron
    rec = icosahedron().to_json()
    rec["edge_lengths"] = [value] * len(rec["edge_lengths"])
    return rec


@pytest.mark.parametrize("verb, mesh, second, bad, field", [
    ("stokes", SQUARE, {"degree": 1.7, "values": [0.0] * 5}, "second",
     "degree"),
    ("stokes", SQUARE, {"degree": True, "values": [0.0] * 5}, "second",
     "degree"),
    ("stokes", {**SQUARE, "cells": {"0": 4, "1": 5, "2": 2.9}},
     sample("cochain1.json"), "mesh", "cells.2"),
    ("chern", _icosahedron_with_float_index(), "tangent", "mesh",
     "boundary.1[0][0]"),
    ("stokes", {**SQUARE, "boundary": {**SQUARE["boundary"], "2": [
        [[0, True], [1, 1], [4, -1]], [[4, 1], [2, 1], [3, 1]]]}},
     sample("cochain1.json"), "mesh", "boundary.2[0][0]"),
    ("holonomy --loop 0,1,2,3", SQUARE, {**CONN, "face_lifts": [1, True]},
     "second", "face_lifts[1]"),
    ("holonomy --loop 0,1,2,3", SQUARE,
     {**CONN, "edge_phases": [0.1, True, 0.15, 0.05, 0.3]}, "second",
     "edge_phases[1]"),
    ("stokes", SQUARE, {"degree": 1, "values": [0.5, True, 2.0, 0.75, 1.5]},
     "second", "values[1]"),
    ("chern", _icosahedron_with_lengths(True), "tangent", "mesh",
     "edge_lengths[0]"),
    ("stokes", {**SQUARE, "coords": [[0, 0], [1, False], [1, 1], [0, 1]]},
     sample("cochain1.json"), "mesh", "coords[1][1]"),
    ("stokes", SQUARE, {"degree": 2, "values": [0.5, 1.5]}, "second",
     ": degree: expected an integer in 0..1, got 2"),
    ("chern", _icosahedron_with_lengths("2.0"), "tangent", "mesh",
     "edge_lengths[0]"),
    ("stokes", SQUARE, {"degree": 1, "values": [0.5, "1.0", 2.0, 0.75, 1.5]},
     "second", "values[1]"),
    ("holonomy --loop 0,1,2,3", SQUARE,
     {**CONN, "edge_phases": [0.1, "0.2", 0.15, 0.05, 0.3]}, "second",
     "edge_phases[1]"),
    ("holonomy --loop 0,1,2,3", SQUARE,
     {**CONN, "edge_phases": [0.1, 0.2, 0.15, 0.05, None]}, "second",
     "edge_phases[4]"),
    ("stokes", SQUARE, {"degree": 1, "values": [0.5, [1.5], 2.0, 0.75, 1.5]},
     "second", "values[1]"),
    ("stokes", {**SQUARE, "coords": [[0, 0], [1, float("nan")], [1, 1],
                                     [0, 1]]},
     sample("cochain1.json"), "mesh", "coords[1][1]"),
    ("stokes", {**SQUARE, "coords": [[10**400, 0], [1, 0], [1, 1], [0, 1]]},
     sample("cochain1.json"), "mesh", "coords[0][0]"),
    ("stokes", {**SQUARE, "edge_lengths": [10**400, 1, 1, 1, 1]},
     sample("cochain1.json"), "mesh", "edge_lengths[0]"),
    ("stokes", SQUARE, {"degree": 1, "values": [10**400, 1.0, 2.0, 0.75, 1.5]},
     "second", "values[0]"),
    ("stokes", {**SQUARE, "coords": [[0, 0], [1], [1, 1], [0, 1]]},
     sample("cochain1.json"), "mesh", "coords[1]"),
    ("stokes", {**SQUARE, "cells": {**SQUARE["cells"], "x": 1}},
     sample("cochain1.json"), "mesh", "cells.x: expected one of '0', '1',"),
    ("stokes", {**SQUARE, "cells": {**SQUARE["cells"], "4": 1}},
     sample("cochain1.json"), "mesh", "cells.4: expected one of '0', '1',"),
    ("stokes", {**SQUARE, "cells": {**SQUARE["cells"], "0": -1}},
     sample("cochain1.json"), "mesh",
     "cells.0: expected an integer >= 0, got -1"),
    ("stokes", {**SQUARE, "boundary": [SQUARE["boundary"]["1"]]},
     sample("cochain1.json"), "mesh", "boundary: expected an object"),
    ("stokes", {**SQUARE, "boundary": {**SQUARE["boundary"], "2": [
        [[0, 1, 5], [1, 1], [4, -1]], [[4, 1], [2, 1], [3, 1]]]}},
     sample("cochain1.json"), "mesh",
     "boundary.2[0][0]: expected a list of length 2, got [0, 1, 5]"),
], ids=["degree-float", "degree-bool", "cells-float", "index-float",
        "sign-bool", "lift-bool", "phase-bool", "value-bool", "length-bool",
        "coord-bool", "degree-top", "length-string", "value-string",
        "phase-string", "phase-null", "value-nested", "coord-nan",
        "coord-huge-int", "length-huge-int", "value-huge-int", "coord-ragged",
        "cells-key-word", "cells-key-4", "cells-negative", "boundary-list",
        "incidence-triple"])
def test_geo_inexact_integer_exit_2(tmp_path, capsys, verb, mesh, second,
                                    bad, field):
    # floats and bools in integer fields are refused, never truncated;
    # real fields take finite numbers only: no bool read as 0 or 1, no
    # string read as its number, no null, nested list or NaN
    paths = {"mesh": tmp_path / "mesh.json",
             "second": tmp_path / "second.json"}
    paths["mesh"].write_text(json.dumps(mesh))
    if isinstance(second, dict):
        paths["second"].write_text(json.dumps(second))
        second = str(paths["second"])
    code, _, err = run(capsys, "geo", *verb.split(), str(paths["mesh"]),
                       second)
    assert code == 2, err
    assert err.startswith(f"input error: {paths[bad]}: ") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, bad, detail", [
    (["stokes", "COCHAIN", "COCHAIN"], "COCHAIN",
     "cells: expected an object, got no 'cells' field"),
    (["stokes", "MESH", "MESH"], "MESH",
     "degree: expected an integer, got no 'degree' field"),
    (["stokes", "MESH", {"degree": 1}], "tmp",
     "values: expected a list, got no 'values' field"),
    (["stokes", [SQUARE], "COCHAIN"], "tmp",
     "$: expected an object, got [{'boundary': {...}, 'cells': {...}}]"),
    (["holonomy", "MESH", 5], "tmp", "$: expected an object, got 5"),
    (["holonomy", "MESH", "COCHAIN", "--loop", "0,1,2,3"], "COCHAIN",
     "edge_phases: expected a list, got no 'edge_phases' field"),
    (["stokes", {**SQUARE, "boundary": {**SQUARE["boundary"], "1": 3}},
      "COCHAIN"], "tmp", "boundary.1: expected a list, got 3"),
    (["stokes", {**SQUARE, "boundary": {**SQUARE["boundary"], "1": [
        3, *SQUARE["boundary"]["1"][1:]]}}, "COCHAIN"], "tmp",
     "boundary.1[0]: expected a list, got 3"),
    (["stokes", "MESH", {"degree": 1, "values": 3}], "tmp",
     "values: expected a list, got 3"),
    (["stokes", "MESH", {"degree": 1, "values": {}}], "tmp",
     "values: expected a list, got {}"),
    (["holonomy", "MESH", {**CONN, "edge_phases": True}], "tmp",
     "edge_phases: expected a list, got True"),
    (["holonomy", "MESH", {**CONN, "face_lifts": 3}], "tmp",
     "face_lifts: expected a list, got 3"),
    (["stokes", "MESH", {"degree": 4, "values": []}], "tmp",
     "degree: expected an integer in 0..3, got 4"),
    (["stokes", "MESH", {"degree": 1, "values": [0.5]}], "tmp",
     "values: expected 5 entries, one per 1-cell, got 1"),
    (["holonomy", "MESH", {**CONN, "edge_phases": [0.1]}], "tmp",
     "edge_phases: expected 5 entries, got 1"),
    (["holonomy", "MESH", {**CONN, "face_lifts": [1]}], "tmp",
     "face_lifts: expected 2 entries, got 1"),
    (["holonomy", "MESH", {**CONN, "face_lifts": [2**63, 0]}], "tmp",
     "face_lifts[0]: expected an integer of at most 2**53 in size, got "
     "9223372036854775808"),
    (["stokes", {**SQUARE, "boundary": {**SQUARE["boundary"], "1": (
        SQUARE["boundary"]["1"][:4])}}, "COCHAIN"], "tmp",
     "boundary.1: expected 5 boundary lists, one per 1-cell, got 4"),
    (["stokes", {**SQUARE, "boundary": {**SQUARE["boundary"], "2": [
        [[0, 1], [1, 1], [9, -1]], [[4, 1], [2, 1], [3, 1]]]}}, "COCHAIN"],
     "tmp", "boundary.2[0][2]: expected a [cell, sign] pair with cell in "
     "0..4 and sign 1 or -1, got [9, -1]"),
    (["stokes", {**SQUARE, "coords": [[0, 0]]}, "COCHAIN"], "tmp",
     "coords: expected 4 entries, got 1"),
    (["stokes", {**SQUARE, "edge_lengths": [1.0]}, "COCHAIN"], "tmp",
     "edge_lengths: expected 5 entries, got 1"),
    (["chern", "MESH", "tangent"], "MESH",
     "edge_lengths: expected a length per edge, got no 'edge_lengths' "
     "field"),
    (["chern", {**SQUARE_DISK, "boundary": {**SQUARE_DISK["boundary"], "2": [
        [[0, 1], [1, 1], [2, 1], [3, 1]]]}}, "tangent"], "tmp",
     "boundary.2[0]: expected the 3 sides of a triangle, got 4 sides"),
    (["chern", {**TRIANGLE, "boundary": {**TRIANGLE["boundary"], "2": [
        [[0, 1], [2, 1], [1, 1]]]}}, "tangent"], "tmp",
     "boundary.2[0]: expected sides that chain head to tail, got sides 2 "
     "and 0 that do not"),
    (["chern", {**TRIANGLE, "cells": {"0": 3, "1": 3}, "boundary": {
        "1": TRIANGLE["boundary"]["1"]}}, "tangent"], "tmp",
     "cells: expected a 2-dimensional complex, got dimension 1"),
    (["chern", {**TRIANGLE, "cells": {"0": 3, "1": 3, "2": 2}, "boundary": {
        **TRIANGLE["boundary"], "2": [[[0, 1], [1, 1], [2, 1]]] * 2}},
      "tangent"], "tmp",
     "edge 0 traversed twice with the same sign; surface not closed and "
     "coherently oriented"),
    (["chern", {"cells": {"0": 3, "1": 4, "2": 1}, "boundary": {
        "1": TRIANGLE["boundary"]["1"] + [[]],
        "2": [[[0, 1], [1, 1], [2, 1]]]}, "edge_lengths": [1.0] * 4},
      "tangent"], "tmp", "edge 3 lacks a (+1, -1) endpoint pair"),
], ids=["cochain-as-mesh", "mesh-as-cochain", "cochain-without-values",
        "array-top-level", "scalar-top-level", "cochain-as-connection",
        "boundary-number", "face-list-number", "values-number",
        "values-object", "phases-bool", "lifts-number", "degree-range",
        "values-count", "phases-count", "lifts-count", "lift-beyond-2**53",
        "boundary-count", "cell-out-of-range", "coords-count",
        "lengths-count", "tangent-without-lengths", "four-sided-face",
        "unchained-sides", "one-dimensional-mesh", "face-traversed-twice",
        "edge-without-ends"])
def test_geo_wrong_kind_file_exit_2(tmp_path, capsys, argv, bad, detail):
    # a geo verb reads each file as the one kind its argument names, and
    # names the path of the first field of the wrong shape
    named = {"MESH": sample("mesh_square.json"),
             "COCHAIN": sample("cochain1.json"), "tmp": tmp_path / "x.json"}
    args = []
    for arg in argv:
        if not isinstance(arg, str):
            named["tmp"].write_text(json.dumps(arg))
            arg = "tmp"
        args.append(str(named.get(arg, arg)))
    code, _, err = run(capsys, "geo", *args)
    assert code == 2
    assert err == f"input error: {named[bad]}: {detail}\n"


def test_topology_faults_precede_metric_faults(tmp_path, capsys):
    # a surface checks every face's chaining before any face's lengths:
    # with both faults, face 1's chaining is named before face 0's length
    mesh = tmp_path / "square.json"
    faces = [SQUARE["boundary"]["2"][0], [[4, 1], [3, 1], [2, 1]]]
    zero = {**SQUARE, "edge_lengths": [0.0, 1.0, 1.0, 1.0, 1.5]}
    for rec, detail in [
            (zero, "face 0: edge 0 has non-positive length 0.0"),
            ({**zero, "boundary": {**SQUARE["boundary"], "2": faces}},
             "boundary.2[1]: expected sides that chain head to tail, got "
             "sides 2 and 0 that do not")]:
        mesh.write_text(json.dumps(rec))
        code, out, err = run(capsys, "geo", "chern", str(mesh), "tangent")
        assert (code, out) == (2, "")
        assert err == f"input error: {mesh}: {detail}\n"


def test_nan_edge_turn_exit_2(tmp_path, capsys):
    with open(sample("conn_square.json")) as fh:
        rec = json.load(fh)
    rec["edge_phases"][1] = float("inf")
    conn = tmp_path / "conn.json"
    conn.write_text(json.dumps(rec))
    code, _, err = run(capsys, "geo", "holonomy", sample("mesh_square.json"),
                       str(conn))
    assert code == 2
    assert "conn.json" in err and "edge_phases[1]" in err and "finite" in err


def test_ill_defined_morphism_in_file_exit_2(tmp_path, capsys):
    f = tmp_path / "bad_mor.json"
    f.write_text(json.dumps({
        "matrix": [[1]],
        "source": {"generators": 1, "relations": [[2]]},
        "target": {"generators": 1, "relations": [[3]]},
    }))
    code, _, err = run(capsys, "group", "iso", str(f))
    assert code == 2
    assert err == (f"input error: {f}: $: relation [2] maps to [2] "
                   "outside the target relation lattice\n")


@pytest.mark.parametrize("verb, first, second", [
    ("pullback", "times2.json", "times3.json"),
    ("pullback", "times3.json", "times2.json"),
    ("kernel", "proj24.json", "times2.json"),
    ("kernel", "times2.json", "proj24.json"),
])
def test_same_name_from_two_files_exit_2(tmp_path, capsys, verb, first,
                                         second):
    # a file names its object by its stem; a name that another file
    # already defined is refused, never silently replaced
    paths = []
    for folder, name in (("a", first), ("b", second)):
        (tmp_path / folder).mkdir()
        path = tmp_path / folder / "m.json"
        shutil.copy(sample(name), path)
        paths.append(str(path))
    code, out, err = run(capsys, "group", verb, *paths)
    assert (code, out) == (2, "")
    assert err == (f"input error: {paths[1]}: 'm' is already defined by "
                   f"{paths[0]}\n")


def test_same_file_twice_defines_its_name_once(capsys):
    # the pullback of x2 with itself, however the file is spelled
    respelled = os.path.join(SAMPLES, "..", "samples", "times2.json")
    for second in (sample("times2.json"), respelled):
        code, out, _ = run(capsys, "group", "pullback",
                           sample("times2.json"), second)
        assert (code, out) == (0, "P = Z, gen (1,1)\n")


def test_pullback_of_different_targets_exit_2(capsys):
    code, out, err = run(capsys, "group", "pullback", sample("times2.json"),
                         sample("proj24.json"))
    assert (code, out) == (2, "")
    assert err == (f"input error: {sample('times2.json')}, "
                   f"{sample('proj24.json')}: "
                   "pullback of morphisms with different targets\n")


@pytest.mark.parametrize("leg, field, value, message", [
    ("lam", "matrix", [[2]], "fills.idfill: f_mor != lambda . phi_H"),
    ("lam", "target", "Hob", "fills.idfill: lambda must end at G_mor"),
    ("fob", "matrix", [[2]], "squares.mirror: square does not commute"),
])
def test_mismatched_square_or_fill_exit_2(tmp_path, capsys, leg, field,
                                          value, message):
    with open(sample("mirror24.json")) as fh:
        rec = json.load(fh)
    rec["morphisms"][leg][field] = value
    f = tmp_path / "bad_square.json"
    f.write_text(json.dumps(rec))
    code, out, err = run(capsys, "cat", "xi", str(f))
    assert (code, out) == (2, "")
    assert err == f"input error: {f}: {message}\n"


@pytest.mark.parametrize("verb, extra, record, message", [
    ("group kernel", [], {"groups": [1]},
     "groups: expected an object, got [1]"),
    ("group kernel", [], {"morphisms": [1]},
     "morphisms: expected an object, got [1]"),
    ("cat hofiber", [], {"squares": {"s": 3}},
     "squares.s: expected an object, got 3"),
    ("cat hofiber", [], {"squares": {"s": "phi_H phi_G f_ob f_mor"}},
     "squares.s: expected an object, got 'phi_H phi_G f_ob f_mor'"),
    ("cat xi", [sample("mirror24.json")], {"fills": {"l": 3}},
     "fills.l: expected an object, got 3"),
    ("cat xi", [sample("mirror24.json")], {"fills": {"l": "lambda"}},
     "fills.l: expected an object, got 'lambda'"),
    ("group kernel", [], [1], "$[0]: expected a list, got 1"),
    ("bnr psi", [], [1], "$[0]: expected a list, got 1"),
    ("group kernel", [], 3, "$: expected an object, got 3"),
    ("group kernel", [], {"morphisms": {"f": {"matrix": [[1]], "source": {
        "generators": 1}}}},
     "morphisms.f.target: expected an object, got no 'target' field"),
], ids=["groups-list", "morphisms-list", "square-number", "square-string",
        "fill-number", "fill-string", "workspace-list", "scene-list",
        "workspace-number", "morphism-without-target"])
def test_malformed_workspace_record_exit_2(tmp_path, capsys, verb, extra,
                                           record, message):
    # a table or record that is not a JSON object is refused by name,
    # even a string holding every field name it should have
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(record))
    code, out, err = run(capsys, *verb.split(), *extra, str(f))
    assert (code, out) == (2, "")
    assert err == f"input error: {f}: {message}\n"


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_stdout(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = command.split()
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if argv[:2] != ["group", "smith"]:
        assert out == GOLDEN[command]
        return
    # transforms may change with the algorithm: compare the diagonal and
    # check U M V = D on what was printed
    lines = out.splitlines()
    assert lines[0] == GOLDEN[command].splitlines()[0]
    with open(argv[2]) as fh:
        M = np.array(json.load(fh), dtype=object)
    U = np.array(json.loads(lines[1].split(" = ", 1)[1]), dtype=object)
    V = np.array(json.loads(lines[2].split(" = ", 1)[1]), dtype=object)
    diag = [int(d) for d in lines[0][len("D = diag("):-1].split(",")]
    D = np.zeros(M.shape, dtype=object)
    for i, d in enumerate(diag):
        D[i, i] = d
    assert ((U @ M @ V) == D).all()


def test_suite_acceptance_listed():
    from abtqft.acceptance import CRITERIA
    assert len(CRITERIA) == 11


@pytest.mark.parametrize("module, tolerance, argv", [
    ("abtqft.discrete.connections", "CHERN_TOLERANCE",
     ["geo", "chern", "builtin:icosahedron", "tangent"]),
    ("abtqft.discrete.surfaces", "LIFT_TOLERANCE",
     ["geo", "chern", "builtin:icosahedron", "tangent"]),
    ("abtqft.discrete.surfaces", "LIFT_TOLERANCE",
     ["bnr", "su", sample("scene_su.json")]),
    ("abtqft.invariants.psi", "PSI_TOLERANCE",
     ["bnr", "psi", sample("scene_s3.json")]),
], ids=["chern-number", "tangent-lift", "scene-tangent-lift", "psi"])
def test_non_integral_invariant_exit_1(capsys, monkeypatch, module,
                                       tolerance, argv):
    # a non-integral invariant is a fault of the computation, even where
    # it is raised while a file is read
    import importlib
    monkeypatch.setattr(importlib.import_module(module), tolerance, -1.0)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("computation error: ")
    assert "from the nearest integer" in err


def _tetrahedra(glued):
    """Equilateral tetrahedra: two glued at vertex 0, or one beside a
    vertex of no triangle."""
    from abtqft.discrete.complexes import build_triangle_surface
    tet = [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)]
    if glued:
        return build_triangle_surface(
            7, tet + [tuple(v + 3 if v else 0 for v in t) for t in tet],
            lambda a, b: 1.0)
    return build_triangle_surface(5, tet, lambda a, b: 1.0)


@pytest.mark.parametrize("glued, message", [
    (True, "vertex 0 link splits into several cycles"),
    (False, "vertex 4 has no incident triangle"),
], ids=["glued-at-a-vertex", "isolated-vertex"])
def test_vertex_link_not_one_cycle_exit_2(tmp_path, capsys, glued, message):
    from abtqft.discrete import ComplexError, tangent_connection
    mesh = _tetrahedra(glued)
    with pytest.raises(ComplexError, match=message):
        tangent_connection(mesh)
    path = tmp_path / "tetrahedra.json"
    path.write_text(json.dumps(mesh.to_json()))
    code, out, err = run(capsys, "geo", "chern", str(path), "tangent")
    assert (code, out) == (2, "")
    assert err == f"input error: {path}: {message}\n"


def _mirror_files(tmp_path, relations=None):
    """mirror24.json, with every group's relations replaced if given,
    split into a file whose top-level record is the square and one that
    is the fill."""
    with open(sample("mirror24.json")) as fh:
        rec = json.load(fh)
    for group in rec["groups"].values() if relations is not None else ():
        group["relations"] = relations
    square, fill = tmp_path / "square.json", tmp_path / "fill.json"
    square.write_text(json.dumps({"groups": rec["groups"],
                                  "morphisms": rec["morphisms"],
                                  **rec["squares"]["mirror"]}))
    fill.write_text(json.dumps(rec["fills"]["idfill"]))
    return str(square), str(fill)


def test_single_record_files(tmp_path, capsys):
    # a file whose top level is one matrix, square or fill names it by
    # its stem
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"matrix": [[2, 4], [6, 8]]}))
    code, out, _ = run(capsys, "group", "smith", str(matrix))
    assert code == 0 and out.splitlines()[0] == "D = diag(2,4)"
    square, fill = _mirror_files(tmp_path)
    code, out, _ = run(capsys, "cat", "hofiber", square)
    assert code == 0 and "object group = Z^2" in out
    for names in ([], ["--square", "square", "--fill", "fill"]):
        code, out, _ = run(capsys, "cat", "xi", square, fill, *names)
        assert (code, out) == (0, "equivalence: true; target: ker = Z "
                                  "(gen (24))\n")


def test_cat_xi_oracle_on_finite_groups(tmp_path, capsys):
    code, out, _ = run(capsys, "cat", "xi", *_mirror_files(tmp_path, [[2]]),
                       "--oracle")
    assert code == 0
    assert out.splitlines()[1] == "oracle: agrees"


def test_cat_xi_oracle_fault_exit_1(tmp_path, capsys, monkeypatch):
    # only an infinite instance is skipped: a ValueError raised inside the
    # enumeration of a finite one is a fault of the computation
    from abtqft import moncat

    def broken(square, fill):
        raise ValueError("enumeration broke")

    monkeypatch.setattr(moncat, "xi_equivalence_by_enumeration", broken)
    code, out, err = run(capsys, "cat", "xi", *_mirror_files(tmp_path, [[2]]),
                         "--oracle")
    assert (code, out) == (1, "")
    assert err == "computation error: enumeration broke\n"
    code, out, _ = run(capsys, "cat", "xi", sample("mirror24.json"),
                       "--oracle")
    assert code == 0
    assert out.splitlines()[-1] == "oracle: skipped (infinite groups)"


def test_cat_xi_oracle_skips_past_the_order_bound(tmp_path, capsys):
    # every group Z/10**12: the fiber's objects are the first group the
    # enumeration would pass the bound on
    code, out, err = run(capsys, "cat", "xi",
                         *_mirror_files(tmp_path, [[10 ** 12]]), "--oracle")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "oracle: skipped (|fiber objects| > 1000000)"


def test_cat_hom_oracle_on_infinite_groups(capsys):
    code, out, _ = run(capsys, "cat", "hom", sample("times2.json"), "0", "4",
                       "--oracle")
    assert code == 0
    assert out.splitlines()[-1] == "oracle: skipped (infinite groups)"


@pytest.mark.parametrize("verb, option, name, table", [
    ("group kernel", "--name", "lam", "morphism"),
    ("cat hofiber", "--square", "mirror", "square"),
    ("cat xi", "--fill", "idfill", "fill"),
])
def test_named_object_found_or_not(capsys, verb, option, name, table):
    code, _, _ = run(capsys, *verb.split(), sample("mirror24.json"), option,
                     name)
    assert code == 0
    code, out, err = run(capsys, *verb.split(), sample("mirror24.json"),
                         option, "nope")
    assert (code, out) == (2, "")
    assert err == (f"input error: no {table} named 'nope' in the loaded "
                   f"files {[sample('mirror24.json')]}\n")


def test_unknown_builtin_mesh_exit_2(capsys):
    code, out, err = run(capsys, "geo", "chern", "builtin:moebius", "tangent")
    assert (code, out) == (2, "")
    assert err.startswith("input error: builtin:moebius: unknown mesh "
                          "'moebius'; available: [")


def test_cat_xi_oracle_disagreement_exit_1(tmp_path, capsys, monkeypatch):
    from abtqft import moncat
    monkeypatch.setattr(moncat, "xi_equivalence_by_enumeration",
                        lambda square, fill: False)
    code, out, err = run(capsys, "cat", "xi", *_mirror_files(tmp_path, [[2]]),
                         "--oracle")
    assert (code, out) == (1, "")
    assert err == "computation error: equivalence oracle disagreement\n"
