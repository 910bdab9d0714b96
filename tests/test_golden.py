"""Golden CLI output: exit codes and stdout digests, in text and JSON, for
every fixture and every `gen` family at seed 5, through each command that
applies to the input's kind.

The digests live in tests/fixtures/golden_digests.txt.  After a deliberate
output change, rewrite that file with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from moribound.cli import POLYTOPE_FAMILIES, SYSTEM_FAMILIES, detect_kind, main

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = FIXTURES / "golden_digests.txt"
SEED = "5"

SYSTEM_COMMANDS = (("check",), ("classify",), ("esets",))
COMMANDS = {
    "system": SYSTEM_COMMANDS,
    "realized": SYSTEM_COMMANDS,
    "polytope": (("check",), ("polytope-stats",)),
    "diagram": SYSTEM_COMMANDS
    + (("diagram", "--rule", "theorem12"), ("diagram", "--rule", "theorem258")),
}

INPUTS = [f"fixture:{p.name}" for p in sorted(FIXTURES.glob("*.json"))] + [
    f"gen:{family}" for family in sorted(POLYTOPE_FAMILIES + SYSTEM_FAMILIES)
]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _line(key: str, code: int, stdout: str) -> str:
    return f"{key}\t{code}\t{hashlib.sha256(stdout.encode()).hexdigest()}"


def digest_lines(source: str, workdir: Path) -> list[str]:
    """One line per run for one input, with the input file under `workdir`
    so that `check` prints a bare file name."""
    origin, name = source.split(":")
    lines = []
    if origin == "gen":
        code, text = _run(["gen", "--family", name, "--seed", SEED])
        lines.append(_line(f"{source} gen --seed {SEED}", code, text))
        name = f"{name}.json"
        (workdir / name).write_text(text, encoding="utf-8")
    else:
        (workdir / name).write_bytes((FIXTURES / name).read_bytes())
    kind = detect_kind(json.loads((workdir / name).read_text(encoding="utf-8")))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command in COMMANDS[kind]:
            for fmt in ("text", "json"):
                argv = [command[0], name, *command[1:], "--format", fmt]
                code, text = _run(argv)
                lines.append(_line(f"{source} {' '.join(argv)}", code, text))
    finally:
        os.chdir(cwd)
    return lines


def _recorded() -> dict[str, str]:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {line.split("\t")[0]: line for line in lines}


@pytest.mark.parametrize("source", INPUTS)
def test_cli_output_matches_golden(source, tmp_path):
    recorded = _recorded()
    got = digest_lines(source, tmp_path)
    want = [recorded[line.split("\t")[0]] for line in got]
    assert got == want
    assert len(got) == sum(1 for key in recorded if key.split(" ")[0] == source)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = [line for source in INPUTS for line in digest_lines(source, Path(tmp))]
    DIGESTS.write_text("\n".join(out) + "\n", encoding="utf-8")
    print(f"wrote {len(out)} digests to {DIGESTS}")
