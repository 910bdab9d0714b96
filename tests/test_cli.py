"""End-to-end CLI behavior: exit codes, pinned output lines, JSON payloads,
and the generate -> check loop."""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import moribound
from moribound import cli
from moribound.cli import POLYTOPE_FAMILIES, SYSTEM_FAMILIES, main

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


def test_check_detects_realized_and_polytope_kinds(capsys, tmp_path):
    from moribound.generate import realized_d2
    from moribound.polytope import cube, polytope_to_json
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
    assert "malformed ray entry" in out


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
    system = json.loads(Path(f"{FIXTURES}/eset_a.json").read_text())
    bundle = json.loads(Path(f"{FIXTURES}/diagram_triangle.json").read_text())
    files = {
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
    }
    for name, data in files.items():
        (directory / name).write_text(json.dumps(data))


@pytest.mark.parametrize("argv", [
    pytest.param(["check", "zero-denominator.json"], id="check-zero-denominator"),
    pytest.param(["bound", "--c1", "1/0", "--c2", "0"], id="bound-zero-denominator"),
    pytest.param(["bound", "--lemma14", "--C", "-1", "--D", "0"], id="bound-negative"),
    pytest.param(["gen", "--family", "cm", "--m", "0"], id="gen-cm-empty"),
    pytest.param(["gen", "--family", "cyclic-dual", "--n", "3", "--m", "2"],
                 id="gen-cyclic-dual-few-points"),
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
