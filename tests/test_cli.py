"""End-to-end CLI behavior: exit codes, pinned output lines, JSON payloads,
and the generate -> check loop."""

import enum
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import moribound
from moribound import cli
from moribound.cli import POLYTOPE_FAMILIES, SYSTEM_FAMILIES, main
from moribound.core import KINDS, to_json
from moribound.polytope import cube, polytope_to_json

from conftest import add_small_perp_ray, retype_small

FIXTURES = "tests/fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- bound: the two closed-form engines ------------------------------------


def test_bound_face_dimension_exact_lines(capsys):
    code, out, _ = run(capsys, "bound", "--d", "2", "--c1", "1", "--c2", "0")
    assert code == 0
    lines = out.splitlines()
    assert "C1 = 1, C2 = 0, band d = 2" in lines
    assert "dim gamma < 34/3" in lines
    assert "dim N1 - dim alpha <= 12" in lines


def test_bound_face_dimension_json(capsys):
    code, out, _ = run(
        capsys, "bound", "--d", "2", "--c1", "1", "--c2", "0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == "34/3"
    assert payload["max_integer"] == 11
    assert payload["relative_bound"] == 12


def test_bound_vertex_count_exact_lines(capsys):
    code, out, _ = run(capsys, "bound", "--lemma14", "--C", "0", "--D", "2/3")
    assert code == 0
    lines = out.splitlines()
    assert "max n = 6" in lines
    assert "rho <= 7" in lines


def test_bound_vertex_count_past_sys_maxsize(capsys):
    code, out, err = run(capsys, "bound", "--lemma14", "--C", "1e19", "--D", "0")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "C = 10000000000000000000, D = 0",
        "max n = 80000000000000000005",
        "rho <= 80000000000000000006",
    ]


def test_bound_vertex_count_json(capsys):
    code, out, _ = run(
        capsys, "bound", "--lemma14", "--C", "2/3", "--D", "0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"C": "2/3", "D": "0", "max_n": 10, "rho_bound": 11}


def test_bound_fractional_c1(capsys):
    code, out, _ = run(capsys, "bound", "--c1", "2/7", "--c2", "0")
    assert code == 0
    assert "dim gamma < 158/21" in out.splitlines()
    assert "dim N1 - dim alpha <= 8" in out.splitlines()


def test_bound_rejects_malformed_fraction(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--c1", "abc", "--c2", "0"])
    assert exc.value.code == 2


def test_bound_requires_both_constants(capsys):
    code, _, err = run(capsys, "bound", "--c1", "1")
    assert code == 2
    assert "c2" in err


@pytest.mark.parametrize("given", [(), ("--C", "1"), ("--D", "0")])
def test_bound_lemma14_requires_both_constants(capsys, given):
    code, out, err = run(capsys, "bound", "--lemma14", *given)
    assert (code, out, err) == (2, "", "--lemma14 needs --C and --D\n")


# --- check ---------------------------------------------------------------------


def test_check_accepts_every_fixture(capsys):
    code, out, _ = run(capsys, "check", FIXTURES)
    assert code == 0
    assert "OK" in out


def test_check_reports_kind_per_file(capsys):
    code, out, _ = run(capsys, "check", FIXTURES, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    kinds = {entry["path"].rsplit("/", 1)[-1]: entry["kind"]
             for entry in payload}
    assert kinds["eset_a.json"] == "system"
    assert kinds["b2_pair.json"] == "system"
    assert kinds["diagram_triangle.json"] == "diagram"
    assert all(entry["ok"] for entry in payload)
    assert all(entry["violations"] == [] for entry in payload)


def test_check_builds_one_relations_per_system_with_faces(capsys, monkeypatch, tmp_path):
    """`validate` reads the `Relations` a system with faces built at
    construction, so one `check` of its file builds exactly one."""
    from moribound.generate import system_eset_d
    from moribound.raysystem import Relations, system_to_json

    (tmp_path / "eset_d.json").write_text(json.dumps(system_to_json(system_eset_d(6))))
    built = []
    init = Relations.__init__

    def counted(self, s):
        built.append(s)
        init(self, s)

    monkeypatch.setattr(Relations, "__init__", counted)
    for path in (f"{FIXTURES}/eset_a.json", f"{FIXTURES}/b2_pair.json", str(tmp_path / "eset_d.json")):
        built.clear()
        code, out, _ = run(capsys, "check", path)
        assert code == 0 and out.startswith(f"{path}: OK"), out
        assert len(built) == 1, path


def test_check_detects_realized_and_polytope_kinds(capsys, tmp_path):
    from moribound.generate import realized_d2
    from moribound.realized import model_to_json

    m, _ = realized_d2(0)
    (tmp_path / "model.json").write_text(json.dumps(model_to_json(m)))
    (tmp_path / "shape.json").write_text(
        json.dumps(polytope_to_json(cube(3)))
    )
    code, out, _ = run(capsys, "check", str(tmp_path), "--format", "json")
    assert code == 0
    kinds = {entry["path"].rsplit("/", 1)[-1]: entry["kind"]
             for entry in json.loads(out)}
    assert kinds == {"model.json": "realized", "shape.json": "polytope"}


def test_check_invalid_system_exits_one(capsys, tmp_path):
    bad = {
        "rays": [
            {"id": "R1", "type": "II", "divisor": "D1"},
            {"id": "R2", "type": "II", "divisor": "D2"},
        ],
        "divisors": ["D1", "D2"],
        "pairing": [[-1, 1], [0, -1]],  # R1 pairs with D2 but no meet listed
        "meets": [],
    }
    path = tmp_path / "bad_system.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "pairing-without-meet" in out


def test_check_malformed_ray_entries_exit_two(capsys, tmp_path):
    bad = {
        "rays": [["R1", "II", "D1"]],  # entries must be objects
        "divisors": ["D1"],
        "pairing": [[-1]],
    }
    path = tmp_path / "listrays.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert "rays[0]: expected an object, got ['R1', 'II', 'D1']" in out


def test_check_broken_json_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2


def test_check_unknown_shape_exits_two(capsys, tmp_path):
    path = tmp_path / "mystery.json"
    path.write_text(json.dumps({"widgets": [1, 2, 3]}))
    code, _, _ = run(capsys, "check", str(path))
    assert code == 2


def test_check_directory_without_json_files_exits_two(capsys, tmp_path):
    (tmp_path / "notes.txt").write_text("{}")
    code, out, err = run(capsys, "check", str(tmp_path))
    assert (code, out, err) == (2, "", "no instance files found\n")


def test_check_missing_file_exits_two(capsys, tmp_path):
    code, _, _ = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 2


def test_check_mixed_batch_parse_error_dominates(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(Path(f"{FIXTURES}/eset_a.json").read_text())
    broken = tmp_path / "broken.json"
    broken.write_text("][")
    code, _, _ = run(capsys, "check", str(tmp_path))
    assert code == 2


def _inconsistent_model() -> dict:
    from moribound.generate import realized_d2
    from moribound.realized import model_to_json

    model = model_to_json(realized_d2(0)[0])
    ray = sorted(model["ray_vectors"])[0]
    model["ray_vectors"][ray] = ["7"] * len(model["ray_vectors"][ray])
    return model


@pytest.mark.parametrize("nested,expected", [
    ("polytope", "polytope-invalid"),
    ("model", "model-inconsistent"),
])
def test_check_batch_survives_nested_construction_failure(
    capsys, tmp_path, nested, expected
):
    bundle = json.loads(Path(f"{FIXTURES}/diagram_triangle.json").read_text())
    if nested == "polytope":  # vertex A lies in one facet of a 2-polytope
        bundle["polytope"]["facets"] = [["A", "B"], ["B", "C"]]
    else:
        bundle["model"] = _inconsistent_model()
    (tmp_path / "a_bad.json").write_text(json.dumps(bundle))
    (tmp_path / "b_good.json").write_text(
        Path(f"{FIXTURES}/diagram_triangle.json").read_text()
    )
    code, out, _ = run(capsys, "check", str(tmp_path), "--format", "json")
    assert code == 1
    bad, good = json.loads(out)
    assert bad["kind"] == "diagram" and not bad["ok"]
    assert [v["code"] for v in bad["violations"]] == [expected]
    assert good["ok"]


# --- classify / esets -------------------------------------------------------------


def test_classify_json_payload(capsys):
    code, out, _ = run(capsys, "classify", f"{FIXTURES}/eset_a.json",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "components", "esets", "failures", "maximal_sets", "e2_pairs"
    }
    assert payload["e2_pairs"] == []
    assert payload["failures"] == []
    # Every maximal extremal set of the cycle is a hub pair.
    labels = {entry["type"] for entry in payload["components"]}
    assert labels == {"C:2"}
    assert [e["case"] for e in payload["esets"]] == ["a"]
    assert all(e["passes_theorem258"] for e in payload["maximal_sets"])


def test_classify_text_mentions_components(capsys):
    code, out, _ = run(capsys, "classify", f"{FIXTURES}/eset_a.json")
    assert code == 0
    assert "C:2" in out
    assert "case a" in out


def test_classify_lists_a_mixed_pair_whose_cone_is_not_pointed(capsys, tmp_path):
    # Touching type II and type I rays with positive crosses, but the type II
    # self pairing is 1: the divisor cone of the pair is not pointed.
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({
        "rays": [{"id": "S1", "type": "II", "divisor": "D1"},
                 {"id": "S2", "type": "I", "divisor": "D2"}],
        "divisors": ["D1", "D2"],
        "pairing": [[1, 1], [1, -1]],
        "meets": [["D1", "D2"]],
        "faces": [[], ["S1"], ["S2"], ["S1", "S2"]],
    }))
    code, out, err = run(capsys, "classify", str(path))
    assert (code, err) == (0, "")
    assert "failures:\n  mixed-pair-cone-not-pointed [S1, S2]\n" in out
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "self-pairing-not-negative [S1, D1]" in out


def test_classify_prints_contracting_pairs_with_a_small_ray(capsys, tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({
        "rays": [{"id": "B", "type": "II", "divisor": "D2"},
                 {"id": "A", "type": "II", "divisor": "D1"},
                 {"id": "X", "type": "small"}, {"id": "P", "type": "small"}],
        "divisors": ["D1", "D2"],
        "pairing": [[0, -1], [-1, 0], ["-1/2", -2], [0, 1]],
    }))
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert out.splitlines()[-3:] == [
        "contracting pairs with a small ray:", "  [A, X]", "  [B, X]",
    ]
    code, out, _ = run(capsys, "classify", str(path), "--format", "json")
    assert json.loads(out)["e2_pairs"] == [["A", "X"], ["B", "X"]]


def test_classify_lists_a_small_ray_of_a_maximal_face_as_unclassified(capsys, tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({
        "rays": [{"id": "A", "type": "II", "divisor": "D1"}, {"id": "S", "type": "small"}],
        "divisors": ["D1"],
        "pairing": [[-1], [1]],
        "faces": [[], ["A"], ["S"], ["A", "S"]],
    }))
    code, out, err = run(capsys, "classify", str(path))
    assert (code, err) == (0, "")
    assert "failures:\n  small-ray-unclassified [S]\n" in out
    assert "  [A, S] shape filter: fail\n" in out


def _case_c_system(tmp_path):
    # R2 and R3 share D2, and D1 touches D2: {R1, R3} is an E-set of case c
    # with the auxiliary ray R2.
    path = tmp_path / "case_c.json"
    path.write_text(json.dumps({
        "rays": [{"id": "R1", "type": "II", "divisor": "D1"},
                 {"id": "R2", "type": "II", "divisor": "D2"},
                 {"id": "R3", "type": "II", "divisor": "D2"}],
        "divisors": ["D1", "D2"],
        "pairing": [[-1, 1], [0, -1], [1, -1]],
        "meets": [["D1", "D2"]],
        "faces": [[], ["R1"], ["R2"], ["R3"], ["R1", "R2"], ["R2", "R3"]],
    }))
    return str(path)


@pytest.mark.parametrize("command, line", [
    ("classify", "  case c [R1, R3] witness=R2"),
    ("esets", "[R1, R3]: case c witness=R2"),
])
def test_classify_and_esets_print_a_case_c_witness(capsys, tmp_path, command, line):
    path = _case_c_system(tmp_path)
    code, out, _ = run(capsys, command, path)
    assert code == 0
    assert line in out.splitlines()
    code, out, _ = run(capsys, command, path, "--format", "json")
    assert code == 0
    assert [(e["rays"], e["case"], e["witness"]) for e in json.loads(out)["esets"]] == [
        (["R1", "R3"], "c", "R2"),
    ]


def test_esets_cycle_case_a(capsys):
    code, out, _ = run(capsys, "esets", f"{FIXTURES}/eset_a.json",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["esets"]) == 1
    entry = payload["esets"][0]
    assert sorted(entry["rays"]) == ["S1", "S2", "S3"]
    assert entry["case"] == "a"
    assert entry["condition_iii_full"] == ["1", "1", "1"]
    assert entry["condition_ii_members"] is False
    assert entry["bipartition_arrows"] is True


def test_esets_empty_for_shared_divisor_pair(capsys):
    code, out, _ = run(capsys, "esets", f"{FIXTURES}/b2_pair.json",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"esets": []}


# --- polytope-stats ------------------------------------------------------------------


def test_polytope_stats_cube(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--family", "cube", "--n", "3",
                       "--out", str(tmp_path / "cube.json"))
    assert code == 0
    code, out, _ = run(capsys, "polytope-stats", str(tmp_path / "cube.json"),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 3
    assert payload["f_vector"] == [8, 12, 6, 1]
    assert payload["simple"] is True
    assert payload["average_vertices_per_2face"] == "4"
    assert payload["bound"] == "6"
    assert payload["strict"] is True


def test_polytope_stats_nonsimple_skips(capsys, tmp_path):
    pyramid = {
        "dim": 3,
        "vertices": ["a", "b", "c", "d", "t"],
        "facets": [["a", "b", "c", "d"], ["a", "b", "t"], ["b", "c", "t"],
                   ["c", "d", "t"], ["d", "a", "t"]],
    }
    path = tmp_path / "pyramid.json"
    path.write_text(json.dumps(pyramid))
    code, out, _ = run(capsys, "polytope-stats", str(path))
    assert code == 0
    assert "skip" in out.lower() or "not simple" in out.lower()


@pytest.mark.parametrize("n, fvector", [(1, [2, 1]), (2, [3, 3, 1])])
def test_polytope_stats_skips_the_bound_below_dimension_three(capsys, tmp_path, n, fvector):
    path = str(tmp_path / "simplex.json")
    assert run(capsys, "gen", "--family", "simplex", "--n", str(n), "--out", path)[0] == 0
    code, out, err = run(capsys, "polytope-stats", path)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"dim = {n}",
        f"f-vector = ({', '.join(map(str, fvector))})",
        "simple: yes",
        f"average-face bound skipped: the bound needs dimension at least 3, not {n}",
    ]
    code, out, err = run(capsys, "polytope-stats", path, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "dim": n, "f_vector": fvector, "simple": True, "bound_checked": False,
    }


def test_a_nested_facet_fails_polytope_stats_and_check(capsys, tmp_path):
    # Facet [1, 3] lies inside facet [0, 1, 3, 4, 5], so it is an edge.
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({
        "dim": 3, "vertices": [0, 1, 2, 3, 4, 5],
        "facets": [[1, 3], [0, 2, 5], [0, 1, 3, 4, 5], [2, 3, 4, 5], [0, 1, 2, 4]],
    }))
    message = "facet [1, 3] has dimension 1, not 2"
    assert run(capsys, "polytope-stats", str(path)) == (1, "", f"error: {path}: {message}\n")
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["violations"] == [
        {"code": "polytope-invalid", "detail": message, "subjects": []}
    ]


def test_a_doubled_vertex_fails_polytope_stats_and_check(capsys, tmp_path):
    # cube(3) with a vertex x in the same three facets as 000: simple, but no
    # facet separates the two.
    c = polytope_to_json(cube(3))
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(dict(
        c, vertices=[*c["vertices"], "x"],
        facets=[f + ["x"] if "000" in f else f for f in c["facets"]],
    )))
    message = "minimal face ['000', 'x'] is not a single vertex"
    assert run(capsys, "polytope-stats", str(path)) == (1, "", f"error: {path}: {message}\n")
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["violations"] == [
        {"code": "polytope-invalid", "detail": message, "subjects": []}
    ]


# --- diagram --------------------------------------------------------------------------


def test_diagram_conforming_exits_zero(capsys):
    code, out, _ = run(capsys, "diagram", f"{FIXTURES}/diagram_triangle.json",
                       "--d", "2", "--rule", "theorem12")
    assert code == 0
    assert "conforming" in out


def test_diagram_nonconforming_exits_one(capsys):
    code, out, _ = run(
        capsys, "diagram", f"{FIXTURES}/diagram_bad_quadrangle.json",
        "--d", "1", "--rule", "theorem258",
    )
    assert code == 1
    assert "counterexample: 2-face-weight-deficit" in out
    assert "counterexample: eset-diameter-exceeds-band" in out


@pytest.mark.parametrize("d", ["0", "-3"])
def test_bound_band_width_below_one_exits_two(capsys, d):
    code, out, err = run(capsys, "bound", "--c1", "1", "--c2", "1", "--d", d)
    assert (code, out) == (2, "")
    assert err == "error: band width d must be at least 1\n"


@pytest.mark.parametrize("rule", ["theorem12", "theorem258"])
@pytest.mark.parametrize("d", ["0", "-3"])
def test_diagram_band_width_below_one_exits_two(capsys, rule, d):
    code, out, err = run(capsys, "diagram", f"{FIXTURES}/diagram_triangle.json",
                         "--rule", rule, "--d", d)
    assert (code, out) == (2, "")
    assert err == "error: band width d must be at least 1\n"


@pytest.mark.parametrize("command", ["check", "diagram"])
def test_bundle_model_of_another_system_is_a_correspondence_error(
    capsys, tmp_path, command
):
    from moribound.generate import realized_b2
    from moribound.realized import model_to_json

    bundle = json.loads(Path(f"{FIXTURES}/diagram_triangle.json").read_text())
    bundle["model"] = model_to_json(realized_b2(0)[0])  # rays C1 and C2
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    code, out, err = run(capsys, command, str(path))
    want = "the realized model's system differs from the bundle's in its rays"
    assert code == 1
    if command == "check":
        assert f"  correspondence-mismatch []: {want}" in out.splitlines()
    else:
        assert (out, err) == ("", f"correspondence error: {want}\n")


@pytest.mark.parametrize("rid", ["S3", "X"])
def test_check_reports_a_small_facet_or_perp_ray(capsys, tmp_path, small_ray_bundles, rid):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(small_ray_bundles[rid]))
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["violations"] == [{
        "code": "correspondence-mismatch",
        "subjects": [],
        "detail": f"ray {rid} is small and cannot enter the graph",
    }]


@pytest.mark.parametrize("rule", sorted(cli.RULES))
@pytest.mark.parametrize("rid", ["S3", "X"])
def test_diagram_refuses_a_small_facet_or_perp_ray(
    capsys, tmp_path, small_ray_bundles, rid, rule
):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(small_ray_bundles[rid]))
    code, out, err = run(capsys, "diagram", str(path), "--rule", rule)
    want = f"correspondence error: ray {rid} is small and cannot enter the graph\n"
    assert (code, out, err) == (1, "", want)


DIAGRAM_FIXTURES = (
    "diagram_triangle.json", "diagram_square_258.json", "diagram_bad_quadrangle.json",
)


def _break_correspondence(bundle: dict, rng: random.Random) -> None:
    """One seeded edit of a diagram bundle that may break its correspondence:
    a facet ray retyped small, an unknown or small perp ray, a face dropped
    from the system, or two facet rays swapped."""
    s = bundle["system"]
    edit = rng.choice(["small-facet", "unknown-perp", "small-perp", "drop-face", "swap"])
    if edit == "small-facet":
        retype_small(bundle, rng.choice(bundle["facet_rays"]))
    elif edit == "unknown-perp":
        bundle["perp_rays"] = sorted(set(bundle["perp_rays"]) | {"Z9"})
    elif edit == "small-perp":
        add_small_perp_ray(bundle, f"X{len(s['rays'])}", faces=rng.random() < 0.5)
    elif edit == "drop-face":
        s["faces"].pop(rng.randrange(len(s["faces"])))
    else:
        rays = bundle["facet_rays"]
        i, j = rng.sample(range(len(rays)), 2)
        rays[i], rays[j] = rays[j], rays[i]


def test_check_passes_no_bundle_that_diagram_refuses(capsys, tmp_path):
    """Over the diagram fixtures and 200 seeded edits of them, no bundle that
    `check` passes gets a correspondence error from `diagram`."""
    bundles = [json.loads(Path(f"{FIXTURES}/{name}").read_text())
               for name in DIAGRAM_FIXTURES]
    for seed in range(200):
        rng = random.Random(seed)
        bundle = json.loads(json.dumps(bundles[seed % len(DIAGRAM_FIXTURES)]))
        for _ in range(rng.randint(1, 2)):
            _break_correspondence(bundle, rng)
        bundles.append(bundle)
    passed = refused = 0
    for i, bundle in enumerate(bundles):
        path = tmp_path / f"bundle{i}.json"
        path.write_text(json.dumps(bundle))
        code, _, _ = run(capsys, "check", str(path))
        assert code in (0, 1), i
        passed += code == 0
        for rule in cli.RULES:
            diagram_code, _, err = run(capsys, "diagram", str(path), "--rule", rule)
            assert diagram_code in (0, 1), (i, rule, err)
            if err.startswith("correspondence error"):
                refused += 1
                assert code == 1, (i, rule, err)
    # Both verdicts occur, so the agreement is not vacuous.
    assert passed > len(DIAGRAM_FIXTURES) and refused


def test_diagram_json_report(capsys):
    code, out, _ = run(
        capsys, "diagram", f"{FIXTURES}/diagram_square_258.json",
        "--d", "1", "--rule", "theorem258", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["conforming"] is True
    assert payload["replay"]["agrees"] is True
    assert payload["empirical_C1"] == "1/2"


# --- the JSON writer ----------------------------------------------------------------

JSON_LEAVES = [
    "", "plain", 'a "quoted" \\ back\\slash', "tab\tnew\nline\r\x00\x1f\x7f", "é ☃ 𝄞  ",
    0, 1, -1, 2**64, -(2**70), 10**300, True, False, None,
]
JSON_KEYS = ["", "a", "b", "B", "é", '"q"', "new\nline", "\\", "10", "9", "ä"]


def _json_payload(rng, depth=0):
    """A seeded nested payload of lists, tuples and dicts (empty ones too)
    over the leaves and string keys the writer takes."""
    roll = rng.random()
    if depth >= 5 or roll < 0.35:
        return rng.choice(JSON_LEAVES)
    size = rng.choice([0, 0, 1, 2, 3, 5])
    if roll < 0.6:
        return [_json_payload(rng, depth + 1) for _ in range(size)]
    if roll < 0.7:
        return tuple(_json_payload(rng, depth + 1) for _ in range(size))
    return {rng.choice(JSON_KEYS) + rng.choice(["", "x", "1"]): _json_payload(rng, depth + 1)
            for _ in range(size)}


def test_dumps_matches_json_dumps_byte_for_byte():
    """`cli._dumps` writes JSON in one pass; its bytes are those of
    `json.dumps(indent=2, sort_keys=True)` on seeded nested payloads, on
    int and str subclasses as values and str subclasses as keys, and on the
    reports of every diagram fixture under both rules."""
    rng = random.Random(30)
    payloads = [_json_payload(rng) for _ in range(2000)]
    payloads += [[[], {}, [[]], [{}]], (), {}]
    # Subclasses: `json` writes an int subclass by `int.__repr__` and a str
    # one by its characters.
    Code = enum.IntEnum("Code", "OK BAD")
    Count = type("Count", (int,), {"__str__": lambda self: "other", "__repr__": lambda self: "other"})
    Name = type("Name", (str,), {"__str__": lambda self: "other"})
    payloads += [{"k": [Code.OK, Name("é\n"), Code.BAD], "j": {"x": Code.OK}},
                 {Name("k"): Name("v"), "j": {Name("é"): Code.BAD}}, {"n": [Count(7), Count(-8)]}]
    for path in DIAGRAM_FIXTURES:
        for rule in cli.RULES:
            out = io.StringIO()
            with redirect_stdout(out):
                main(["diagram", f"{FIXTURES}/{path}", "--rule", rule, "--format", "json"])
            payloads.append(json.loads(out.getvalue()))
    assert sum(isinstance(p, dict) and len(p) > 1 for p in payloads) > 100
    for payload in payloads:
        assert cli._dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("payload", [
    {"a": object()}, [1, {2, 3}], {(1, 2): "tuple key"}, {"a": 1, 2: "mixed keys"},
    {"a": [b"bytes"]}, {"a": 1j},
])
def test_dumps_refuses_what_json_refuses(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._dumps(payload)


@pytest.mark.parametrize("payload", [
    {"a": 0.5}, [float("inf")], {"a": [float("nan")]},
    {1: "int key"}, {None: "None key"}, {1.5: "float key"},
])
def test_dumps_refuses_floats_and_non_str_keys(payload):
    """No command prints a float or a non-str key, so one in a payload means
    exactness was lost: the writer raises rather than write what `json` would."""
    with pytest.raises(TypeError):
        cli._dumps(payload)


def test_a_float_in_a_payload_is_a_program_bug_not_a_usage_error(capsys, monkeypatch):
    """`main` turns a ValueError into exit 2; a float reaching the writer
    raises TypeError, which escapes as a traceback.  The text form, which
    does not go through the writer, still exits 0."""
    monkeypatch.setattr(cli, "lemma14_max_n", lambda C, D: 6.0)
    argv = ["bound", "--lemma14", "--C", "0", "--D", "2/3"]
    with pytest.raises(TypeError):
        main([*argv, "--format", "json"])
    capsys.readouterr()
    assert main(argv) == 0
    assert "max n = 6.0" in capsys.readouterr().out


# --- gen -> check loop -------------------------------------------------------------


@pytest.mark.parametrize(
    "family, seed",
    [pytest.param(f, "5", id=f) for f in sorted(POLYTOPE_FAMILIES + SYSTEM_FAMILIES)]
    # seed 83's first draw passes validate but fails the contact-product check
    + [pytest.param("random-valid", "83", id="random-valid-83")],
)
def test_gen_output_passes_check(capsys, tmp_path, family, seed):
    path = tmp_path / f"{family}.json"
    code, _, _ = run(capsys, "gen", "--family", family, "--seed", seed,
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0, out


def test_gen_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "gen", "--family", "random-valid",
                         "--seed", "17", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_stdout_when_no_out(capsys):
    code, out, _ = run(capsys, "gen", "--family", "c2")
    assert code == 0
    payload = json.loads(out)
    assert payload["rays"][0] == {"divisor": "D1", "id": "S1", "type": "II"}


def test_gen_out_directory_exits_two_and_leaves_no_temp_file(capsys, tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    code, out, err = run(capsys, "gen", "--family", "cube", "--out", str(target))
    assert code == 2
    assert out == "" and err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(target.iterdir()) == []


def test_gen_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "dodecahedron"])
    assert exc.value.code == 2


def test_no_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_one_parser_per_process_answers_like_a_fresh_one(capsys, monkeypatch):
    calls = [
        ["esets", "--format", "yaml", f"{FIXTURES}/eset_a.json"],
        ["classify", f"{FIXTURES}/eset_a.json", "--format", "json"],
        ["esets", f"{FIXTURES}/eset_a.json"],
    ]

    def outputs():
        out = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    assert cli._parser() is cli._parser()
    reused = outputs()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outputs() == reused
    assert [code for code, _, _ in reused] == [2, 0, 0]


# --- exit-code contract: bad input is exit 2, never a traceback ---------------


def _write_bad_inputs(directory: Path) -> None:
    from moribound.generate import realized_d2
    from moribound.realized import model_to_json

    system = json.loads(Path(f"{FIXTURES}/eset_a.json").read_text())
    bundle = json.loads(Path(f"{FIXTURES}/diagram_triangle.json").read_text())
    pair = {
        "rays": [{"id": "A", "type": "II", "divisor": "X"},
                 {"id": "B", "type": "II", "divisor": "Y"}],
        "divisors": ["X", "Y"],
        "pairing": [[-1, 1], [1, -1]],
        "meets": [["X", "Y"]],
    }
    model = model_to_json(realized_d2(0)[0])
    assert model["ray_vectors"]["S1"] == ["1", "0", "0"]
    # Read as a list of its characters, each string below gives an instance
    # that parses, and one that is valid outside the two diagram bundles.
    files = {
        "polytope-string-vertices.json": {"dim": 1, "vertices": "ab",
                                          "facets": ["a", "b"]},
        "faces-strings.json": dict(pair, pairing=[[-1, 0], [0, -1]], meets=[],
                                   faces=["", "A", "B", "AB"]),
        "divisors-string.json": dict(pair, divisors="XY", meets=["XY"]),
        "anticanonical-string.json": {
            "rays": [{"id": "A", "type": "II", "divisor": "X"}],
            "divisors": ["X"],
            "pairing": [[-1]],
            "anticanonical": "1",
        },
        "model-vector-string.json": dict(
            model, ray_vectors=dict(model["ray_vectors"], S1="100")
        ),
        "fano-mode-string.json": dict(system, fano_mode="false"),
        "form-entry-string.json": dict(model, intersection_form=["0001"]),
        "facet-rays-string.json": dict(bundle, facet_rays="".join(bundle["facet_rays"])),
        "perp-rays-string.json": dict(bundle, perp_rays=bundle["facet_rays"][0]),
        "zero-denominator.json": {
            "rays": [{"id": "R1", "type": "II", "divisor": "D1"}],
            "divisors": ["D1"],
            "pairing": [["1/0"]],
        },
        "list-ids.json": {"dim": 1, "vertices": [[0], [1]],
                          "facets": [[[0]], [[1]]]},
        "inconsistent-model.json": _inconsistent_model(),
        "pairing-zero.json": dict(system, pairing=0),
        "pairing-null.json": dict(system, pairing=None),
        "pairing-object.json": dict(system, pairing={"a": 1}),
        "pairing-flat.json": dict(system, pairing=[x for row in system["pairing"] for x in row]),
        "rays-true.json": dict(system, rays=True),
        "facet-ray-object.json": dict(bundle, facet_rays=[{}, "S2", "S3"]),
        "polytope-no-dim.json": {"vertices": ["a", "b"], "facets": [["a"], ["b"]]},
        "polytope-string-dim.json": {"dim": "1", "vertices": ["a", "b"],
                                     "facets": [["a"], ["b"]]},
        "pairing-true-entry.json": {
            "rays": [{"id": "R1", "type": "II", "divisor": "D1"}],
            "divisors": ["D1"],
            "pairing": [[True]],
        },
        "polytope-bool-dim.json": {"dim": True, "vertices": ["a", "b"],
                                   "facets": [["a"], ["b"]]},
        "ray-without-divisor.json": dict(
            pair, rays=[pair["rays"][0], {"id": "B", "type": "II"}]
        ),
        "small-ray-with-divisor.json": dict(
            pair, rays=[pair["rays"][0], {"id": "B", "type": "small", "divisor": "Y"}]
        ),
        "ray-id-integer.json": {
            "rays": [{"id": 7, "type": "II", "divisor": "D"}],
            "divisors": ["D"],
            "pairing": [[-1]],
        },
        "face-ray-integer.json": {
            "rays": [{"id": 7, "type": "II", "divisor": "D"}],
            "divisors": ["D"],
            "pairing": [[-1]],
            "faces": [[], [7]],
        },
        "divisor-id-integer.json": {
            "rays": [{"id": "A", "type": "II", "divisor": 1}],
            "divisors": [1],
            "pairing": [[-1]],
        },
        "rho-string.json": dict(model, rho=str(model["rho"])),
        "rho-float.json": dict(model, rho=model["rho"] + 0.9),
        "rho-bool.json": dict(model, rho=True),
        "form-index-string.json": dict(model, intersection_form=[["0", 1, 2, "1"]]),
        "form-index-float.json": dict(model, intersection_form=[[0, 1, 2.7, "1"]]),
        "form-index-bool.json": dict(model, intersection_form=[[0, True, 2, "1"]]),
        "top-level-list.json": [],
        "duplicate-ray-ids.json": dict(system, rays=[
            system["rays"][0], dict(system["rays"][1], id=system["rays"][0]["id"]),
            *system["rays"][2:],
        ]),
        "duplicate-divisor-ids.json": dict(
            system, divisors=[system["divisors"][0], *system["divisors"][:-1]]
        ),
        "rho-zero.json": dict(model, rho=0),
        "ray-without-vector.json": dict(
            model, ray_vectors={k: v for k, v in model["ray_vectors"].items() if k != "S1"}
        ),
        "anticanonical-too-short.json": dict(model, anticanonical_vector=["1"]),
        "form-row-of-three.json": dict(model, intersection_form=[[0, 0, 0]]),
    }
    for name, data in files.items():
        (directory / name).write_text(json.dumps(data))
    (directory / "deep-array.json").write_text("[" * 100_000 + "]" * 100_000)
    (directory / "not-utf8.json").write_bytes(b"\xff\xfe{}")


# Bad inputs whose error message must name the ray at fault and its type.
NAMED_ERRORS = {
    "ray-without-divisor.json": "rays[1].divisor: type II ray B must carry a divisor",
    "small-ray-with-divisor.json": "rays[1].divisor: small ray B carries no divisor",
    "ray-id-integer.json": "rays[0].id: expected a string, got 7",
    "face-ray-integer.json": "rays[0].id: expected a string, got 7",
    "divisor-id-integer.json": "rays[0].divisor: expected a string, got 1",
}


@pytest.mark.parametrize("argv", [
    pytest.param(["check", "zero-denominator.json"], id="check-zero-denominator"),
    *(
        pytest.param([command, "deep-array.json"], id=f"{command}-deep-array")
        for command in ("check", "classify", "esets", "polytope-stats", "diagram")
    ),
    pytest.param(["classify", "not-utf8.json"], id="classify-not-utf8"),
    pytest.param(["bound", "--c1", "1/0", "--c2", "0"], id="bound-zero-denominator"),
    pytest.param(["bound", "--lemma14", "--C", "-1", "--D", "0"], id="bound-negative"),
    pytest.param(["gen", "--family", "cm", "--m", "0"], id="gen-cm-empty"),
    pytest.param(["gen", "--family", "cyclic-dual", "--n", "3", "--m", "2"],
                 id="gen-cyclic-dual-few-points"),
    *(
        pytest.param(["gen", "--family", "cyclic-dual", "--n", "1", "--m", m],
                     id=f"gen-cyclic-dual-segment-{m}-points")
        for m in ("3", "4")
    ),
    pytest.param(["polytope-stats", "list-ids.json"], id="polytope-stats-list-ids"),
    pytest.param(["classify", "inconsistent-model.json"], id="classify-inconsistent-model"),
    pytest.param(["classify", "pairing-zero.json"], id="classify-pairing-zero"),
    pytest.param(["esets", "pairing-null.json"], id="esets-pairing-null"),
    pytest.param(["classify", "pairing-object.json"], id="classify-pairing-object"),
    pytest.param(["classify", "pairing-flat.json"], id="classify-pairing-flat"),
    pytest.param(["classify", "rays-true.json"], id="classify-rays-true"),
    pytest.param(["diagram", "facet-ray-object.json"], id="diagram-facet-ray-object"),
    pytest.param(["check", "polytope-no-dim.json"], id="check-polytope-no-dim"),
    pytest.param(["polytope-stats", "polytope-no-dim.json"],
                 id="polytope-stats-polytope-no-dim"),
    pytest.param(["check", "polytope-string-dim.json"], id="check-polytope-string-dim"),
    pytest.param(["polytope-stats", "polytope-string-dim.json"],
                 id="polytope-stats-polytope-string-dim"),
    pytest.param(["classify", "pairing-true-entry.json"], id="classify-pairing-true-entry"),
    pytest.param(["check", "polytope-bool-dim.json"], id="check-polytope-bool-dim"),
    pytest.param(["check", "polytope-string-vertices.json"],
                 id="check-polytope-string-vertices"),
    pytest.param(["check", "faces-strings.json"], id="check-faces-strings"),
    pytest.param(["check", "divisors-string.json"], id="check-divisors-string"),
    pytest.param(["check", "anticanonical-string.json"], id="check-anticanonical-string"),
    pytest.param(["check", "model-vector-string.json"], id="check-model-vector-string"),
    pytest.param(["check", "fano-mode-string.json"], id="check-fano-mode-string"),
    pytest.param(["check", "form-entry-string.json"], id="check-form-entry-string"),
    pytest.param(["diagram", "facet-rays-string.json"], id="diagram-facet-rays-string"),
    pytest.param(["diagram", "perp-rays-string.json"], id="diagram-perp-rays-string"),
    *(
        pytest.param([command, f"{shape}.json"], id=f"{command}-{shape}")
        for shape in ("ray-without-divisor", "small-ray-with-divisor")
        for command in ("check", "classify", "esets")
    ),
    *(
        pytest.param(["check", f"{name}.json"], id=f"check-{name}")
        for name in ("rho-string", "rho-float", "rho-bool",
                     "form-index-string", "form-index-float", "form-index-bool",
                     "ray-id-integer", "face-ray-integer", "divisor-id-integer")
    ),
])
def test_bad_input_exits_two_without_traceback(tmp_path, argv):
    _write_bad_inputs(tmp_path)
    src = Path(moribound.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "moribound.cli", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert NAMED_ERRORS.get(argv[-1], "") in proc.stdout + proc.stderr


@pytest.mark.parametrize("argv, code, line", [
    *(
        ([command, "top-level-list.json"], 2,
         "error: top-level-list.json: instance file must contain a JSON object")
        for command in ("classify", "esets", "polytope-stats", "diagram")
    ),
    (["check", "top-level-list.json"], 2,
     "top-level-list.json: unreadable (SystemFormatError: instance file must contain a JSON object)"),
    (["check", "duplicate-ray-ids.json"], 2,
     "duplicate-ray-ids.json: unreadable (SystemFormatError: rays: duplicate ray ids)"),
    (["classify", "duplicate-ray-ids.json"], 2,
     "error: duplicate-ray-ids.json: rays: duplicate ray ids"),
    (["classify", "duplicate-divisor-ids.json"], 2,
     "error: duplicate-divisor-ids.json: divisors: duplicate divisor ids"),
    (["check", "rho-zero.json"], 1, "  model-inconsistent []: rho must be positive"),
    (["classify", "rho-zero.json"], 2, "error: rho-zero.json: rho must be positive"),
    (["check", "ray-without-vector.json"], 1, "  model-inconsistent []: ray S1 has no vector"),
    (["check", "anticanonical-too-short.json"], 1,
     "  model-inconsistent []: anticanonical vector dimension does not match rho"),
    (["check", "form-row-of-three.json"], 2,
     "form-row-of-three.json: unreadable (SystemFormatError: "
     "intersection_form[0]: expected 4 entries, got [0, 0, 0])"),
    (["bound", "--c1", "-1", "--c2", "0"], 2, "error: constants must be nonnegative"),
    (["gen", "--family", "cm", "--m", "0"], 2, "error: need at least one ray"),
    (["gen", "--family", "eset-d", "--k", "1"], 2,
     "error: a minimal non-extremal set needs at least two rays"),
    (["gen", "--family", "simplex", "--n", "0"], 2, "error: simplex dimension must be >= 1"),
    (["gen", "--family", "cube", "--n", "0"], 2, "error: cube dimension must be >= 1"),
    (["gen", "--family", "cyclic-dual", "--n", "3", "--m", "3"], 2,
     "error: need m >= d+1 points, got d=3, m=3"),
])
def test_a_refusal_prints_its_reason(capsys, monkeypatch, tmp_path, argv, code, line):
    _write_bad_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    got, out, err = run(capsys, *argv)
    assert got == code
    assert line in (out + err).splitlines()


def _bad_ray_id(data: dict) -> dict:
    data = json.loads(json.dumps(data))
    data["rays"][0]["id"] = 7
    return data


@pytest.mark.parametrize("command", ["classify", "esets", "diagram", "polytope-stats"])
def test_a_file_that_cannot_be_built_is_named_first(capsys, tmp_path, command):
    bundle = json.loads(Path(f"{FIXTURES}/diagram_triangle.json").read_text())
    data, why = {
        "classify": (_bad_ray_id(bundle["system"]), "rays[0].id: expected a string, got 7"),
        "esets": (_bad_ray_id(bundle["system"]), "rays[0].id: expected a string, got 7"),
        "diagram": (dict(bundle, system=_bad_ray_id(bundle["system"])),
                    "system.rays[0].id: expected a string, got 7"),
        "polytope-stats": (dict(bundle["polytope"], dim="3"),
                           "dim: expected an integer, got '3'"),
    }[command]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(capsys, command, str(path)) == (2, "", f"error: {path}: {why}\n")


@pytest.mark.parametrize("command, why", [
    ("classify", "holds a polytope, not a ray-divisor system"),
    ("esets", "holds a polytope, not a ray-divisor system"),
    ("diagram", "not a diagram bundle"),
])
def test_a_file_of_the_wrong_kind_is_named_once(capsys, tmp_path, command, why):
    from moribound.polytope import cube, polytope_to_json

    path = tmp_path / "cube.json"
    path.write_text(json.dumps(polytope_to_json(cube(3))))
    assert run(capsys, command, str(path)) == (2, "", f"error: {path}: {why}\n")


def test_an_unreadable_file_is_named_once(capsys, tmp_path):
    path, broken = tmp_path / "absent.json", tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(capsys, "classify", str(path)) == (
        2, "", f"error: {path}: No such file or directory\n")
    code, out, err = run(capsys, "polytope-stats", str(broken))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {broken}: invalid JSON: ")


def test_a_batch_goes_on_past_files_it_cannot_decode(capsys, tmp_path):
    _write_bad_inputs(tmp_path)
    fixture = f"{FIXTURES}/eset_a.json"
    deep, bad = str(tmp_path / "deep-array.json"), str(tmp_path / "not-utf8.json")
    code, out, err = run(capsys, "check", fixture, bad, deep)
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        f"{fixture}: OK [system]",
        f"{bad}: unreadable (UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte)",
        f"{deep}: unreadable (JSONDecodeError: nesting too deep: line 1 column 1 (char 0))",
    ]


def _two_rays(**extra):
    return dict(
        rays=[{"id": "R1", "type": "II", "divisor": "D1"},
              {"id": "R2", "type": "II", "divisor": "D2"}],
        divisors=["D1", "D2"], pairing=[[-1, 0], [0, -1]], **extra,
    )


@pytest.mark.parametrize("command", ["classify", "esets"])
def test_a_ray_in_no_face_is_named_with_the_file(capsys, tmp_path, command):
    path = tmp_path / "two.json"
    path.write_text(json.dumps(_two_rays(faces=[[], ["R1"]])))
    assert run(capsys, command, str(path)) == (
        2, "", f"error: {path}: ray R2 is not extremal on its own\n")
    code, out, _ = run(capsys, "check", str(path))
    assert (code, out.splitlines()[1].split()[0]) == (1, "singleton-not-a-face")


def test_esets_without_faces_names_the_file(capsys, tmp_path):
    path = tmp_path / "nofaces.json"
    path.write_text(json.dumps(_two_rays()))
    assert run(capsys, "esets", str(path)) == (
        2, "", f"error: {path}: system has no face structure\n")
    assert run(capsys, "classify", str(path))[0] == 0


@pytest.mark.parametrize("field, key, what", [
    ("ray_vectors", "GHOST", "ray"),
    ("divisor_vectors", "DX", "divisor"),
])
@pytest.mark.parametrize("command", ["check", "classify", "esets", "diagram"])
def test_a_model_vector_for_no_ray_or_divisor_of_its_system_exits_two(
    capsys, tmp_path, field, key, what, command
):
    from moribound.generate import realized_d2
    from moribound.realized import model_to_json

    model = model_to_json(realized_d2(0)[0])
    model[field][key] = [1, 0, 0]
    where = f"{field}.{key}: no such {what}"
    if command == "diagram":  # the model in a bundle of its own system
        bundle = json.loads(Path(f"{FIXTURES}/diagram_triangle.json").read_text())
        model = dict(bundle, system=model["base_system"], model=model)
        where = f"model.{where}"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    if command == "check":
        assert out == f"{path}: unreadable (SystemFormatError: {where})\n"
    else:
        assert (out, err) == ("", f"error: {path}: {where}\n")


# --- fixture mutation: any damaged field still gets an exit code --------------

REPLACEMENTS = (None, 0, -1, True, "x", "1/0", [], {}, [[]], [0], {"a": 1})
MUTATED_COMMANDS = (
    ["check"],
    ["classify"],
    ["esets"],
    ["polytope-stats"],
    ["diagram"],
    ["diagram", "--rule", "theorem258", "--d", "1"],
)


def _paths(node, prefix=()):
    """Every (path, value) in a JSON tree, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,), value
        if isinstance(value, (dict, list)) and value:
            yield from _paths(value, prefix + (key,))


def _mutate(rng, data):
    """A copy of `data` with one field dropped, retyped or corrupted."""
    data = json.loads(json.dumps(data))
    path, value = rng.choice(list(_paths(data)))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    op = rng.choice(("drop", "retype", "corrupt"))
    if op == "drop":
        del parent[path[-1]]
    elif op == "retype" or isinstance(value, (bool, type(None))):
        parent[path[-1]] = rng.choice(REPLACEMENTS)
    elif isinstance(value, str):
        parent[path[-1]] = rng.choice((value + "?", "", "Z9"))
    elif isinstance(value, int):
        parent[path[-1]] = value + rng.choice((-2, -1, 1))
    elif isinstance(value, list):
        parent[path[-1]] = value[1:] if rng.random() < 0.5 else value + value[:1]
    else:
        parent[path[-1]] = dict(list(value.items())[1:])
    return data


def test_mutated_fixtures_never_raise(tmp_path):
    from moribound.generate import realized_d2
    from moribound.polytope import cube, polytope_to_json
    from moribound.realized import model_to_json

    sources = [json.loads(p.read_text()) for p in sorted(Path(FIXTURES).glob("*.json"))]
    sources += [model_to_json(realized_d2(0)[0]), polytope_to_json(cube(3))]
    rng = random.Random(0)
    path = tmp_path / "mutant.json"
    sink = io.StringIO()
    for source in sources:
        for _ in range(40):
            mutant = _mutate(rng, source)
            path.write_text(json.dumps(mutant))
            for command in MUTATED_COMMANDS:
                argv = [command[0], str(path), *command[1:]]
                try:
                    with redirect_stdout(sink), redirect_stderr(sink):
                        code = main(argv)
                except Exception as exc:  # nothing may escape main
                    pytest.fail(f"{argv} raised {exc!r} on {json.dumps(mutant)}")
                assert code in (0, 1, 2), (argv, mutant)


def _mutate_faces(rng, faces):
    """A copy of a face list with one to three seeded damages: a face
    dropped, duplicated or reordered, an id repeated, an unknown id, a
    non-list entry, or the empty face or a singleton dropped."""
    faces = [list(f) for f in faces]
    for _ in range(rng.randint(1, 3)):
        op, k = rng.randrange(9), rng.randrange(len(faces))
        face = faces[k] if isinstance(faces[k], list) else []
        if op == 0 and len(faces) > 1:
            del faces[k]
        elif op == 1:
            faces.insert(rng.randrange(len(faces) + 1), face[:])
        elif op == 2:
            rng.shuffle(faces)
        elif op == 3:
            rng.shuffle(face)
        elif op == 4 and face:
            face.append(rng.choice(face))
        elif op == 5:
            face.append("Z9")
        elif op == 6:
            faces[k] = rng.choice(("R1", 3, None, {"a": 1}, [1], [None], True))
        else:  # 7: the empty face, 8: a singleton
            small = [i for i, f in enumerate(faces) if isinstance(f, list) and len(f) == op - 7]
            if small and len(faces) > 1:
                del faces[rng.choice(small)]
    return faces


def test_mutated_face_lists_never_raise(tmp_path):
    """Seeded damage to the face lists of `gen` systems whose families are
    dense (eset-d at k = 8, cm at m = 7) and sparse (cm at m = 4, d2,
    eset-a): check, classify and esets, in text and JSON, exit 0, 1 or 2,
    raise nothing, and name the file whenever they exit 2."""
    sources = []
    for opts in (["eset-d", "--k", "8"], ["cm", "--m", "7"], ["cm", "--m", "4"], ["d2"], ["eset-a"]):
        path = tmp_path / "source.json"
        with redirect_stdout(io.StringIO()):
            assert main(["gen", "--family", *opts, "--out", str(path)]) == 0
        sources.append(json.loads(path.read_text()))
    rng = random.Random(39)
    path = tmp_path / "mutant.json"
    codes = Counter()
    for source in sources:
        for _ in range(50):
            mutant = dict(source, faces=_mutate_faces(rng, source["faces"]))
            path.write_text(json.dumps(mutant))
            for command in ("check", "classify", "esets"):
                for form in ("text", "json"):
                    argv = [command, str(path), "--format", form]
                    out = io.StringIO()
                    try:
                        with redirect_stdout(out), redirect_stderr(out):
                            code = main(argv)
                    except Exception as exc:  # nothing may escape main
                        pytest.fail(f"{argv} raised {exc!r} on {mutant['faces']}")
                    assert code in (0, 1, 2), (argv, mutant["faces"])
                    if code == 2:
                        assert str(path) in out.getvalue(), (argv, out.getvalue())
                    codes[code] += 1
    assert codes.keys() == {0, 1, 2}, codes


# --- the field tables: every declared field, every wrong JSON type ------------

WRONG_TYPES = (None, True, 7, 1.5, "x", [], {})
DROP = object()  # `_replaced` deletes the field


def _samples():
    """One instance of each kind that holds every declared field, nested
    kinds included (the parts need not agree with each other)."""
    from moribound.generate import realized_fano
    from moribound.realized import model_to_json

    bundle = json.loads(Path(f"{FIXTURES}/diagram_triangle.json").read_text())
    model = dict(model_to_json(realized_fano(9, m=2)[0]), base_system=bundle["system"],
                 intersection_form=[[0, 1, 2, "1/2"]])
    return {
        "system": bundle["system"],
        "polytope": bundle["polytope"],
        "realized": model,
        "diagram": dict(bundle, perp_rays=["S1"], model=model),
    }


def _declared(shape, sample, keys=()):
    """(keys, shape, required) of every field declared under `shape`, down
    through lists, objects and nested kinds, with each list and map read at
    its last entry of `sample`.  `required` tells an object's required
    fields from its optional ones, and is None for list and map entries."""
    from moribound.core import KINDS, Opt

    if type(shape) is Opt:
        shape = shape.shape
    if type(shape) is str:
        shape = KINDS[shape]
    if type(shape) is dict and str in shape:  # an object from any key
        subs = [(list(sample)[-1], shape[str])]
        shape = None
    elif type(shape) is dict:
        subs = shape.items()
    elif type(shape) is list:
        subs = [(len(sample) - 1, shape[0])]
    elif type(shape) is tuple:
        subs = list(enumerate(shape))
    else:
        return
    for key, sub in subs:
        assert key in sample if isinstance(sample, dict) else 0 <= key < len(sample), keys
        yield keys + (key,), sub, type(sub) is not Opt if type(shape) is dict else None
        yield from _declared(sub, sample[key], keys + (key,))


def _json_path(keys):
    out = ""
    for key in keys:
        out += f"[{key}]" if isinstance(key, int) else f".{key}" if out else key
    return out


def _table_allows(shape, value):
    from moribound.core import Leaf, Opt

    if type(shape) is Opt:
        return value is None or _table_allows(shape.shape, value)
    if type(shape) is not Leaf or type(value) not in shape.types:
        return False
    try:
        if shape.read is not None:
            shape.read(value)
    except ValueError:
        return False
    return True


def _replaced(data, keys, value):
    data = json.loads(json.dumps(data))
    parent = data
    for key in keys[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    return data


def test_every_declared_field_of_every_kind_names_its_path_on_a_wrong_type(tmp_path):
    path = tmp_path / "mutant.json"
    mutants = 0
    for kind, sample in _samples().items():
        for keys, shape, _ in _declared(kind, sample):  # asserts `sample` has every field
            original = sample
            for key in keys:
                original = original[key]
            for value in WRONG_TYPES:
                if type(value) is type(original):
                    continue
                mutants += 1
                path.write_text(json.dumps(_replaced(sample, keys, value)))
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(["check", str(path)])
                text = out.getvalue() + err.getvalue()
                assert "Traceback" not in text
                if _table_allows(shape, value):
                    assert code in (0, 1, 2), (kind, keys, value)
                else:
                    assert code == 2, (kind, keys, value, text)
                    assert f"(SystemFormatError: {_json_path(keys)}: " in text, text
    assert mutants == 762


def test_a_missing_required_field_names_its_path():
    seen = 0
    for kind, sample in _samples().items():
        for keys, _, required in _declared(kind, sample):
            if not required:
                continue
            with pytest.raises(moribound.core.SystemFormatError) as caught:
                cli.FROM_JSON[kind](_replaced(sample, keys, DROP))
            assert str(caught.value) == f"{_json_path(keys)}: missing"
            seen += 1
    assert seen == 37  # the required fields of the four kinds, nested kinds included


def _written_instances():
    """(kind, instance) for every fixture, every `gen` family at its default
    options, each realized constructor, a model with an intersection form,
    and a bundle that carries a model."""
    from dataclasses import replace

    from moribound import generate
    from moribound.bounds import DiagramInstance
    from moribound.core import TrilinearForm

    for path in sorted(Path(FIXTURES).glob("*.json")):
        data = json.loads(path.read_text())
        kind = cli.detect_kind(data)
        yield kind, cli.FROM_JSON[kind](data)
    options = cli.build_parser().parse_args(["gen", "--family", "cube"])
    yield from (("polytope", build(options)) for build in generate.POLYTOPES.values())
    yield from (("system", build(options)[0]) for build in generate.SYSTEMS.values())
    models = [build(1)[0] for build in (generate.realized_b2, generate.realized_cm,
                                        generate.realized_d2, generate.realized_fano)]
    models += [generate.planted_dependence(3, 1)[0], generate.planted_with_a1(3, 1)[0]]
    form = TrilinearForm.of(3, [((0, 1, 2), "1/2"), ((2, 2, 0), -3)])
    models.append(replace(models[2], intersection_form=form))
    yield from (("realized", m) for m in models)
    bundle = cli.FROM_JSON["diagram"](
        json.loads(Path(f"{FIXTURES}/diagram_triangle.json").read_text()))
    yield "diagram", DiagramInstance.of(bundle.system, bundle.polytope, bundle.facet_rays,
                                        ["S1"], models[-1])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_reads_back_what_it_writes(kind):
    instances = [x for k, x in _written_instances() if k == kind]
    assert instances and set(KINDS) == set(cli.FROM_JSON)
    for x in instances:
        text = json.dumps(to_json(x, kind))
        again = cli.FROM_JSON[kind](json.loads(text))
        assert again == x, text
        assert json.dumps(to_json(again, kind)) == text  # key order included


def test_readme_lists_exactly_the_declared_keys_of_each_kind():
    from moribound.core import KINDS, Opt

    text = Path(__file__).parents[1].joinpath("README.md").read_text()
    section = text.split("## File formats", 1)[1].split("\n## ", 1)[0]
    labels = {"system": "system", "polytope": "polytope",
              "realized model": "realized", "diagram bundle": "diagram"}
    listed = {}
    for bullet in section.split("\n- ")[1:]:
        label, _, body = bullet.partition(":")
        body = body.split("\n\n", 1)[0]
        listed[labels[label]] = set(re.findall(r"`([a-z_]+)`", body))

    def keys(shape):
        if type(shape) is dict:
            for key, sub in shape.items():
                if key is not str:  # not an object from any key
                    yield key
                yield from keys(sub)
        elif type(shape) in (list, tuple):
            for sub in shape:
                yield from keys(sub)
        elif type(shape) is Opt:
            yield from keys(shape.shape)

    assert listed == {kind: set(keys(table)) for kind, table in KINDS.items()}


def test_readme_library_map_names_only_what_exists():
    """Every backticked identifier in README's "Library map" is a moribound
    module, an attribute of a module or of a class in one, a parameter of a
    function in one, a CLI subcommand, a builtin or a component label, so a
    deleted name cannot stay documented.  In a dotted name, each part after
    a module or a class is an attribute of it."""
    import argparse
    import builtins
    import importlib
    import inspect
    import pkgutil

    text = Path(__file__).parents[1].joinpath("README.md").read_text()
    section = text.split("## Library map", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"`([A-Za-z_][\w.]*)`", section))
    assert len(names) > 100

    def attributes(owner):
        """`owner`'s attribute names, dataclass fields included."""
        return {*dir(owner), *getattr(owner, "__dataclass_fields__", ())}

    def parameters(fn):
        try:
            return set(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            return set()

    scopes, known = {}, set()  # scopes: the modules and classes, by name
    for info in pkgutil.iter_modules(moribound.__path__):
        module = importlib.import_module(f"moribound.{info.name}")
        scopes[info.name] = scopes[module.__name__] = module
        for attr, value in vars(module).items():
            known.add(attr)
            if inspect.isclass(value):
                scopes.setdefault(attr, value)
                known |= attributes(value)
                for member in vars(value).values():
                    known |= parameters(getattr(member, "__func__", member))
            if inspect.isfunction(value):
                known |= parameters(value)
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    known |= set(subparsers.choices) | set(dir(builtins)) | {"A1", "B2", "C", "D2", "E2"}

    def resolves(name):
        parts = name.split(".")
        if parts[0] == "moribound" and len(parts) > 1:
            parts[:2] = [".".join(parts[:2])]
        scope = scopes.get(parts[0])
        if scope is None and parts[0] not in known:
            return False
        for part in parts[1:]:
            if part not in (known if scope is None else attributes(scope)):
                return False
            scope = scopes.get(part) if scope is None else getattr(scope, part, None)
            scope = scope if inspect.ismodule(scope) or inspect.isclass(scope) else None
        return True

    assert sorted(n for n in names if not resolves(n)) == []
