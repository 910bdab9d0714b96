"""Reading a system file: face ids are checked by the lookups that turn faces
into masks, and every answer matches the reader that walks the full table
first."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import product

from moribound import bounds, cli, core, raysystem, realized
from moribound.core import ID, KINDS, walk
from moribound.generate import realized_cm, system_eset_d
from moribound.raysystem import Ray, RayDivisorSystem, system_to_json
from moribound.realized import model_to_json

FIXTURES = "tests/fixtures"
# The modules that read a nested or top-level system by this name.
READERS = (raysystem, realized, bounds, cli)


def strict_system_from_json(data):
    """The reader that walks the whole system table, each face id's type
    included, before it builds the system."""
    f = core.walk(data, KINDS["system"])
    f["rays"] = [Ray(**r) for r in f["rays"]]
    return RayDivisorSystem.of(**f)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _bases():
    """(file content, the path from it to its system) for two plain systems,
    one whose faces leave a ray out, a realized model whose base system lists
    faces, and a diagram bundle."""
    with open(f"{FIXTURES}/eset_a.json", encoding="utf-8") as fh:
        plain = json.load(fh)
    gap = dict(plain, faces=[f for f in plain["faces"] if f != ["S2"]])
    model = model_to_json(realized_cm(1)[0])
    ids = [r["id"] for r in model["base_system"]["rays"]]
    model["base_system"]["faces"] = [[], *([rid] for rid in ids), ids[:2], ids[1:]]
    with open(f"{FIXTURES}/diagram_triangle.json", encoding="utf-8") as fh:
        bundle = json.load(fh)
    eset_d = system_to_json(system_eset_d(3))
    return [(plain, ()), (eset_d, ()), (gap, ()), (model, ("base_system",)),
            (bundle, ("system",))]


# Face entries: an int, true, null, a float, [], {}, an unknown id, and a
# repeated id (the face's own first entry, or any ray's id in an empty face);
# last, no entry but the face itself as an object keyed by its ids.
REPEAT, AS_OBJECT = object(), object()
ENTRIES = (7, True, None, 1.5, [], {}, "ZZ", REPEAT, AS_OBJECT)


def _mutate_face(rng, system, which):
    faces = system["faces"]
    k = rng.choice([k for k, face in enumerate(faces) if type(face) is list])
    face = faces[k]
    value = ENTRIES[which]
    if value is AS_OBJECT:
        faces[k] = dict.fromkeys(face, 0)
        return
    if value is REPEAT:
        value = face[0] if face else system["rays"][0]["id"]
    face.insert(rng.randint(0, len(face)), value)


def _second_fault(rng, system, fault):
    """A fault in a field declared before `faces`, after it, or one found
    only when the system is built."""
    rays = system["rays"]
    j = rng.randrange(len(rays))
    if fault == "rays":
        rays[j]["id"] = 7
    elif fault == "pairing":
        system["pairing"][j][0] = "1/0"
    elif fault == "anticanonical":
        system["anticanonical"] = [None] * len(rays)
    elif fault == "duplicate":
        rays[1]["id"] = rays[0]["id"]
    elif fault == "divisor":
        rays[j]["divisor"] = "NOPE"


FAULTS = (None, "rays", "pairing", "anticanonical", "duplicate", "divisor")
COMMANDS = [[command, *fmt] for command in ("check", "classify", "esets")
            for fmt in ([], ["--format", "json"])]


def test_reading_matches_the_strict_reader_on_mutated_faces(tmp_path, monkeypatch):
    rng = random.Random(41)
    paths = []
    for b, (base, where) in enumerate(_bases()):
        for which, fault, twice in product(range(len(ENTRIES)), FAULTS, (False, True)):
            data = json.loads(json.dumps(base))
            system = data
            for key in where:
                system = system[key]
            _mutate_face(rng, system, which)
            if twice:  # another face entry, before or after the first
                _mutate_face(rng, system, rng.randrange(len(ENTRIES)))
            _second_fault(rng, system, fault)
            path = tmp_path / f"{b}-{which}-{fault}-{twice}.json"
            path.write_text(json.dumps(data))
            paths.append(str(path))
    runs = [argv + [path] for path in paths for argv in COMMANDS]
    got = [run(argv) for argv in runs]
    for module in READERS:
        monkeypatch.setattr(module, "system_from_json", strict_system_from_json)
    want = [run(argv) for argv in runs]
    differ = [(argv, g, w) for argv, g, w in zip(runs, got, want) if g != w]
    assert not differ, differ[:3]
    # The mutants reach every kind of answer: clean runs, violations, face
    # ids refused by type and by lookup, and faults of the other fields.
    text = "".join(out + err for _, out, err in want)
    assert {code for code, _, _ in want} == {0, 1, 2}
    for message in ("expected a string, got", "face names unknown ray ZZ",
                    "duplicate ray ids", "unknown divisor NOPE", "rays[", "pairing[",
                    "anticanonical[", "base_system.faces[", "system.faces["):
        assert message in text, message


def test_a_valid_file_scans_no_face_id_types(tmp_path, monkeypatch):
    path = tmp_path / "eset-d-12.json"
    assert run(["gen", "--family", "eset-d", "--k", "12", "--out", str(path)])[0] == 0
    data = json.loads(path.read_text())
    strict_walks, scans, built = [], [], []

    def counting_walk(value, shape, parsers=None):
        if shape is KINDS["system"]:
            strict_walks.append(value)
        return walk(value, shape, parsers)

    fast = core._fast

    def counting_fast(values, shape):
        if shape == [ID] and values == data["faces"]:
            scans.append(shape)
        return fast(values, shape)

    read = raysystem.system_from_json

    def keeping_read(value):
        built.append(read(value))
        return built[-1]

    monkeypatch.setattr(core, "walk", counting_walk)
    monkeypatch.setattr(raysystem, "walk", counting_walk)
    monkeypatch.setattr(core, "_fast", counting_fast)
    monkeypatch.setattr(cli, "system_from_json", keeping_read)
    code, out, err = run(["check", str(path)])
    assert (code, err) == (0, "") and out.endswith(": OK [system]\n")
    assert (len(built), strict_walks, scans) == (1, [], [])
    # The counters see the strict reader's walk and scan.
    want = strict_system_from_json(data)
    assert len(strict_walks) == 1 and len(scans) == 1
    assert built[0]._face_masks == want._face_masks and built[0] == want
    assert len(want._face_masks) == 4095
