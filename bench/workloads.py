"""The three workloads: their set-up, their items, and their verdicts.

`setup(seed)` makes a workload's inputs and sets `items`, one round of
(key, payload) pairs in the order the caller sends them; `verdict(payload)`
takes one item to its verdict and `digest_of(verdict)` reduces it to what
`expected[key]` records.  The expected files cover every key of the input
pool, so they hold for any seed.  The benchmark calls the program
in-process: the library for `sweep`, `moribound.cli.main(argv)` with stdout
captured in memory for the other two.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import random

from moribound import cli, generate, structure
from moribound.core import format_rational

import inputs

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")
WORK_DIR = ".bench_work"  # relative to the checkout root, which is the cwd

# The exhaustive enumeration's size, pinned by tier-1 criteria 6 and 7.
SWEEP_COUNTS = {4: (7729, 91604)}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:10]


def expected_path(name: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{name}.json.gz")


def load_expected(name: str):
    with gzip.open(expected_path(name), "rt", encoding="utf-8") as fh:
        return json.load(fh)


class Sweep:
    """Every (system, face-variant) pair with at most `max_rays` divisorial
    rays, each taken to its full classify + esets verdict by library calls.
    A round is one pair; the seed orders the pairs.  Expected verdicts are a
    list indexed by enumeration order, whose prefix is the smaller sweeps."""

    name = "sweep"
    round_size = 1

    def __init__(self, max_rays: int = 4):
        self.max_rays = max_rays
        self.pairs: list = []
        self.items: list = []

    def setup(self, seed: int) -> None:
        self.pairs = []  # frees the previous set-up before building again
        pairs = []
        bases = 0
        prev = None
        for base, variant in generate.enumerate_sign_systems(
            max_rays=self.max_rays, with_faces=True
        ):
            if base is not prev:
                bases += 1
                prev = base
            pairs.append((base, variant))
        want = SWEEP_COUNTS.get(self.max_rays)
        if want is not None and (bases, len(pairs)) != want:
            raise RuntimeError(
                f"enumeration gave {bases} systems and {len(pairs)} pairs, "
                f"expected {want[0]} and {want[1]}"
            )
        self.pairs = pairs
        order = list(range(len(pairs)))
        random.Random(seed).shuffle(order)
        self.items = [(i, i) for i in order]

    def all_items(self) -> list:
        return [(i, i) for i in range(len(self.pairs))]

    def verdict(self, index: int) -> str:
        base, variant = self.pairs[index]
        s = base.with_faces(variant)
        report = structure.classify_report(s)
        entries = []
        for eset in structure.find_esets(s, [r.id for r in s.divisorial_rays]):
            full = structure.condition_iii_full(s, eset)
            entries.append(
                {
                    "rays": sorted(eset),
                    "condition_ii_members": structure.check_condition_ii(s, eset),
                    "condition_iii_full": None
                    if full is None
                    else [format_rational(c) for c in full],
                    "bipartition_arrows": None
                    if full is None
                    else structure.check_lemma11(s, eset),
                }
            )
        return json.dumps({"classify": report, "esets": entries}, sort_keys=True)

    @staticmethod
    def digest_of(verdict: str) -> str:
        return digest(verdict)


class CliWorkload:
    """Generated instance files sent through `moribound.cli.main`.  A round
    is every (command, file) item of the run, in seeded order."""

    name = ""
    pool: dict[str, tuple[str, ...]] = {}
    per_family = 4  # seeded pool members of each family in one run
    fixtures: tuple[str, ...] = ()
    payload = commands = None  # set by subclasses

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.items: list = []
        self.round_size = 0

    def members(self, rng: random.Random) -> list[str]:
        """The inputs of one run: `per_family` seeded pool members of every
        family, and the fixtures, which are read in place."""
        names = []
        for _, members in sorted(self.pool.items()):
            names += rng.sample(members, min(self.per_family, len(members)))
        return names + list(self.fixtures)

    def _items(self, names: list[str]) -> list:
        paths = inputs.write_inputs(names, self.payload, os.path.join(WORK_DIR, self.name))
        return [
            (f"{' '.join(command)} {name}", [*command, paths[name], "--format", "json"])
            for name in names
            for command in self.commands(name)
        ]

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        items = self._items(self.members(rng))
        rng.shuffle(items)
        self.items = items
        self.round_size = len(items)

    def all_items(self) -> list:
        names = [m for members in self.pool.values() for m in members]
        return self._items(names + list(self.fixtures))

    @staticmethod
    def verdict(argv: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return f"{code} {out.getvalue()}"

    @staticmethod
    def digest_of(verdict: str) -> str:
        code, _, stdout = verdict.partition(" ")
        return f"{code} {digest(stdout)}"


class Wide(CliWorkload):
    """`check`, `classify` and `esets` on systems with 6-12 divisorial rays;
    `check` on realized models."""

    name = "wide"
    pool = inputs.wide_pool()
    payload = staticmethod(inputs.wide_payload)
    commands = staticmethod(inputs.wide_commands)

    def members(self, rng: random.Random) -> list[str]:
        if self.tiny:
            return ["eset_d-8", "cm-6", rng.choice(self.pool["random-6"]),
                    rng.choice(self.pool["planted-2"])]
        return super().members(rng)


class CrossSection(CliWorkload):
    """`polytope-stats` on polytope files and `diagram` under both rules on
    generated bundles and the bundled fixtures."""

    name = "cross_section"
    pool = inputs.cross_pool()
    fixtures = inputs.FIXTURES
    payload = staticmethod(inputs.cross_payload)
    commands = staticmethod(inputs.cross_commands)

    def members(self, rng: random.Random) -> list[str]:
        if self.tiny:
            return ["stats-cyclic_dual-5-10", rng.choice(self.pool["bundle-cube-4"]),
                    inputs.FIXTURES[0]]
        return super().members(rng)


def make(name: str, tiny: bool = False):
    """The named workload; `tiny` shrinks it for the smoke test."""
    if name == "sweep":
        return Sweep(max_rays=2 if tiny else 4)
    return {"wide": Wide, "cross_section": CrossSection}[name](tiny=tiny)

