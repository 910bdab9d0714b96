"""Acceptance suite: one test per advertised guarantee, each with an elapsed
budget.  Run with -v to get a pass/fail line per criterion."""

import json
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from moribound.bounds import (
    Theorem12Rule,
    Theorem258Rule,
    diagram_from_json,
    diagram_pipeline,
    lemma14_max_n,
)
from moribound.cli import main
from moribound.generate import (
    enumerate_sign_systems,
    planted_dependence,
    planted_with_a1,
    polytope_family,
    realized_b2,
    realized_cm,
    realized_d2,
    realized_fano,
)
from moribound.polytope import a02_bound, average_faces, lemma13_bound
from moribound.raysystem import validate
from moribound.realized import (
    check_prop238_form,
    fano_nef_sum,
    b2_nef_combine,
    cm_nef_extension,
    d2_nef_extension,
    is_nef,
    linear_dependence,
)
from moribound.structure import (
    ClassificationFailure,
    check_condition_ii,
    classify_component,
    classify_eset,
    classify_extremal_set,
    check_lemma11,
    condition_ii_witness,
    condition_iii_full,
    divisorial_components,
    find_esets,
)

FIXTURES = "tests/fixtures"


class budget:
    """Context manager asserting wall-clock spend and printing it."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        print(f"{self.label}: {elapsed:.2f}s (budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label} took {elapsed:.2f}s, over its "
                f"{self.seconds:.0f}s budget"
            )
        return False


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# --- criteria 1-2: the two closed-form engines through the CLI ---------------


def test_criterion_01_face_dim_bound_cli_exact_output(capsys):
    with budget("criterion 1", 1.0):
        code, out = run_cli(capsys, "bound", "--d", "2", "--c1", "1",
                            "--c2", "0")
    assert code == 0
    lines = out.splitlines()
    assert "dim gamma < 34/3" in lines
    assert "dim N1 - dim alpha <= 12" in lines


def test_criterion_02_vertex_cap_cli_exact_output(capsys):
    with budget("criterion 2", 1.0):
        code, out = run_cli(capsys, "bound", "--lemma14", "--C", "0",
                            "--D", "2/3")
    assert code == 0
    lines = out.splitlines()
    assert "max n = 6" in lines
    assert "rho <= 7" in lines


# --- criterion 3: vertex cap table and coarse line ----------------------------


def test_criterion_03_vertex_cap_closed_form_table():
    frozen = {
        Fraction(0): 4,
        Fraction(1, 3): 8,
        Fraction(2, 3): 10,
        Fraction(1): 13,
        Fraction(2): 21,
    }
    with budget("criterion 3", 1.0):
        for c, expect in frozen.items():
            n = lemma14_max_n(c, 0)
            assert n == expect, (c, n, expect)
            assert n < 8 * c + 6


# --- criterion 4: the parity-split average-face bound --------------------------


def test_criterion_04_average_bound_agreement_and_decay():
    with budget("criterion 4", 1.0):
        values = {n: lemma13_bound(n, 0, 2) for n in range(3, 65)}
        for n, v in values.items():
            assert v == a02_bound(n)
            assert v > 4
        for n in range(3, 63):
            assert values[n + 2] < values[n], f"no strict decay at n={n}"


# --- criterion 5: every catalog polytope beats the bound strictly --------------


def test_criterion_05_polytope_family_strict_averages():
    with budget("criterion 5", 30.0):
        members = list(polytope_family())
        assert len(members) >= 25
        for name, p in members:
            n = p.dim
            avg = average_faces(p, 0, 2)
            assert avg < a02_bound(n), (name, avg, a02_bound(n))
            # Cross-check the average against the vertex/2-face incidence
            # identity of simple polytopes.
            total = sum(len(f) for f in p.faces(2))
            per_vertex = n * (n - 1) // 2
            assert len(p.vertices) * per_vertex == total, name
            assert avg == Fraction(total, len(p.faces(2)))


# --- criterion 6: component classifier vs an independent oracle -----------------


def _oracle_component(s, comp):
    """Re-derive the component type from the raw pairing table.

    Uses set-based hub detection and an explicit interval witness for the
    mixed-pair cone, so disagreement with the library classifier points at a
    genuine defect rather than a shared formula.
    """
    ids = sorted(comp)
    q = s.q
    dv = {r: s.ray(r).divisor for r in ids}
    tv = {r: s.ray(r).type.value for r in ids}
    meets = s.meets

    def touch(d1, d2):
        return d1 == d2 or frozenset((d1, d2)) in meets

    if len(ids) == 1:
        rid = ids[0]
        if tv[rid] == "I":
            return {"kind": "A1"}
        return {"kind": "C", "m": 1, "hub": None, "amb": False}

    if len(ids) == 2 and dv[ids[0]] == dv[ids[1]]:
        if tv[ids[0]] == "II" and tv[ids[1]] == "II":
            return {"kind": "B2"}
        return {"fail": "shared-divisor-not-type-ii"}

    if any(tv[r] == "I" for r in ids):
        if len(ids) > 2:
            return {"fail": "oversized-component-with-type-i"}
        if all(tv[r] == "I" for r in ids):
            return {"fail": "joined-type-i-pair"}
        a = next(r for r in ids if tv[r] == "II")
        b = next(r for r in ids if tv[r] == "I")
        if q(a, dv[b]) <= 0 or q(b, dv[a]) <= 0:
            return {"fail": "mixed-pair-crosses-not-positive"}
        # Pointedness: some ray direction a + t b (t > 0) must be strictly
        # negative on both divisors.
        lo = Fraction(q(a, dv[b]), -q(b, dv[b]))
        hi = Fraction(-q(a, dv[a]), q(b, dv[a]))
        if lo < hi:
            t = (lo + hi) / 2
            assert q(a, dv[a]) + t * q(b, dv[a]) < 0
            assert q(a, dv[b]) + t * q(b, dv[b]) < 0
            return {"kind": "D2"}
        return {"fail": "mixed-pair-cone-not-pointed"}

    hubs = [
        h
        for h in ids
        if all(q(h, dv[sp]) == 0 for sp in ids if sp != h)
        and all(q(sp, dv[h]) > 0 for sp in ids if sp != h)
        and not any(
            touch(dv[x], dv[y])
            for x, y in combinations([r for r in ids if r != h], 2)
        )
    ]
    if hubs:
        return {
            "kind": "C", "m": len(ids), "hub": min(hubs),
            "amb": len(hubs) > 1,
        }
    return {"fail": "no-hub-ray"}


def _compositions(n, cap=16):
    out = []
    for m in product(range(cap + 1), repeat=n):
        if 1 <= sum(m) <= cap:
            out.append(m)
    return out


def _smallest_failing_subset(s, comp):
    """The size of the smallest subset of a component that fails condition
    (ii), or None when every nonempty subset satisfies it."""
    for size in range(1, len(comp) + 1):
        for sub in combinations(sorted(comp), size):
            if not check_condition_ii(s, sub):
                return size
    return None


def test_criterion_06_component_classifier_matches_oracle():
    comps_by_n: dict = {}
    grid_memo: dict = {}
    systems = components = grids = 0
    # Failures split by the size of their smallest subset that fails
    # condition (ii); the residual satisfy it on every subset.
    classified = 0
    excluded: Counter = Counter()
    residual: Counter = Counter()
    with budget("criterion 6", 300.0):
        for s in enumerate_sign_systems(max_rays=4):
            systems += 1
            if systems % 97 == 0:
                assert validate(s) == []
            ids = sorted(r.id for r in s.rays)
            for comp in divisorial_components(s, ids):
                components += 1
                want = _oracle_component(s, comp)
                smallest = _smallest_failing_subset(s, comp)
                try:
                    got = classify_component(s, comp)
                except ClassificationFailure as fail:
                    assert want.get("fail") == fail.reason, (
                        comp, want, fail.reason, s.pairing
                    )
                    if smallest is None:
                        residual[len(comp), fail.reason] += 1
                    else:
                        excluded[smallest] += 1
                    continue
                assert smallest is None, (comp, got, s.pairing)
                classified += 1
                assert "fail" not in want, (comp, got, want, s.pairing)
                assert got.kind == want["kind"], (comp, got, want)
                if want["kind"] == "C":
                    assert got.m == want["m"]
                    assert got.hub == want["hub"]
                    assert got.hub_ambiguous == want["amb"]

            # Condition (ii) on the full ray set: exact answer vs a bounded
            # integer grid.
            rows = tuple(
                tuple(int(s.q(a, s.divisor_of(b))) for b in ids) for a in ids
            )
            exact = condition_ii_witness(s, ids)
            if exact is not None:
                assert all(v >= 0 for v in exact)
                assert any(v > 0 for v in exact)
                for row in rows:
                    assert sum(v * m for v, m in zip(row, exact)) >= 0
            elif rows not in grid_memo:
                grids += 1
                n = len(ids)
                if n not in comps_by_n:
                    comps_by_n[n] = _compositions(n)
                hit = None
                for m in comps_by_n[n]:
                    if all(
                        sum(v * mv for v, mv in zip(row, m) if mv) >= 0
                        for row in rows
                    ):
                        hit = m
                        break
                assert hit is None, (
                    f"library says infeasible but grid point {hit} satisfies "
                    f"{rows}"
                )
                grid_memo[rows] = True
    assert systems == 7729, systems
    assert (components, classified) == (9045, 1470), (components, classified)
    assert excluded == {2: 6622, 3: 202, 4: 6}, excluded
    assert residual == {(3, "no-hub-ray"): 189, (4, "no-hub-ray"): 556}, residual
    print(f"criterion 6: {systems} systems, {components} components, "
          f"{grids} grid sweeps")


# --- criterion 7: E-set classifier vs an independent filter ----------------------


def _simple_ii(s, rid):
    own = s.q(rid, s.ray(rid).divisor)
    return all(
        own + s.q(rid, d) >= 0 for d in s.divisors if s.q(rid, d) > 0
    )


def _grouped(s, ids):
    """Components of the contact relation, by union-find."""
    parent = {r: r for r in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in combinations(ids, 2):
        da, db = s.ray(a).divisor, s.ray(b).divisor
        if da == db or frozenset((da, db)) in s.meets:
            parent[find(a)] = find(b)
    groups: dict = {}
    for r in ids:
        groups.setdefault(find(r), set()).add(r)
    return list(groups.values())


def _case_b_feasible(s, a, b):
    """Positive t = m2/m1 keeping every probe row a_p + t b_p >= 0, found by
    interval arithmetic; returns a verified (m1, m2) or None."""
    da, db = s.ray(a).divisor, s.ray(b).divisor
    probes = [
        p.id
        for p in s.rays
        if p.type.value == "I"
        or (p.type.value == "II" and _simple_ii(s, p.id))
    ]
    lows, highs = [], []
    for p in probes:
        av, bv = s.q(p, da), s.q(p, db)
        if bv > 0:
            lows.append(Fraction(-av, bv))
        elif bv < 0:
            highs.append(Fraction(-av, bv))
        elif av < 0:
            return None
    low = max(lows) if lows else None
    high = min(highs) if highs else None
    if high is None:
        t = (low if low is not None and low > 0 else Fraction(0)) + 1
    else:
        if high <= 0:
            return None
        if low is None or low <= 0:
            t = high
        elif low <= high:
            t = (low + high) / 2
        else:
            return None
    assert t > 0
    m1, m2 = Fraction(t.denominator), Fraction(t.numerator)
    for p in probes:
        assert s.q(p, da) * m1 + s.q(p, db) * m2 >= 0, (a, b, p)
    return (m1, m2)


def _case_c_partner(s, a, b):
    for x, y in ((a, b), (b, a)):
        rx, ry = s.ray(x), s.ray(y)
        if rx.type.value != "II" or ry.type.value != "II":
            continue
        found = sorted(
            p.id
            for p in s.rays
            if p.id != x
            and p.type.value == "II"
            and p.divisor == rx.divisor
            and _simple_ii(s, p.id)
            and s.q(p.id, ry.divisor) == 0
            and s.q(y, p.divisor) > 0
        )
        if found:
            return found[0]
    return None


def _eset_filter(s, eset):
    """Independent success/shape predicate for the four-case analysis."""
    ids = sorted(eset)
    q = s.q
    dv = {r: s.ray(r).divisor for r in ids}
    tv = {r: s.ray(r).type.value for r in ids}
    if any(tv[r] == "II" and not _simple_ii(s, r) for r in ids):
        return ("fail", "nonsimple-type-ii-member")
    groups = _grouped(s, ids)
    if len(groups) > 1:
        if any(len(g) > 1 for g in groups):
            return ("fail", "disconnected-eset-not-pairwise-disjoint")
        if any(tv[r] != "II" for r in ids):
            return ("fail", "disjoint-eset-with-type-i")
        return ("ok", "d")
    if len(ids) == 2:
        a, b = ids
        if dv[a] == dv[b]:
            return ("fail", "shared-divisor-pair")
        if tv[a] == "I" and tv[b] == "I":
            return ("fail", "type-i-pair")
        if q(a, dv[b]) <= 0 or q(b, dv[a]) <= 0:
            return ("fail", "hub-pattern-pair-not-extremal")
        if _case_b_feasible(s, a, b) is not None:
            return ("ok", "b")
        if _case_c_partner(s, a, b) is not None:
            return ("ok", "c")
        return ("fail", "connected-pair-unclassifiable")
    if len(ids) == 3:
        if any(tv[r] != "II" for r in ids):
            return ("fail", "connected-triple-not-cyclic")
        for x, y, z in permutations(ids):
            strict = (
                q(x, dv[y]) > 0 and q(y, dv[z]) > 0 and q(z, dv[x]) > 0
            )
            zero = (
                q(y, dv[x]) == 0 and q(z, dv[y]) == 0 and q(x, dv[z]) == 0
            )
            if strict and zero:
                accepted = all(
                    sum(q(p, dv[r]) for r in ids) >= 0 for p in s.ray_ids
                )
                if accepted:
                    return ("ok", "a")
                return ("fail", "cyclic-triple-rejects-unit-combination")
        return ("fail", "connected-triple-not-cyclic")
    return ("fail", "oversized-connected-eset")


def test_criterion_07_eset_classifier_matches_filter():
    pairs = esets_checked = lemma_checks = 0
    prev = None
    seen: dict = {}
    with budget("criterion 7", 300.0):
        for base, variant in enumerate_sign_systems(max_rays=4,
                                                    with_faces=True):
            pairs += 1
            if base is not prev:
                prev = base
                seen = {}
                ids = sorted(r.id for r in base.rays)
            s = base.with_faces(variant)
            if pairs % 97 == 0:
                assert validate(s) == []
            for eset in find_esets(s, ids):
                if eset in seen:
                    continue
                seen[eset] = True
                esets_checked += 1
                want = _eset_filter(s, eset)
                try:
                    got = classify_eset(s, eset)
                except ClassificationFailure as fail:
                    assert want == ("fail", fail.reason), (
                        sorted(eset), want, fail.reason, s.pairing
                    )
                else:
                    assert want == ("ok", got.kind), (
                        sorted(eset), want, got.kind, s.pairing
                    )
                    if got.kind == "b":
                        assert got.m1 >= 1 and got.m2 >= 1
                full = condition_iii_full(s, eset)
                if full is not None:
                    lemma_checks += 1
                    assert check_lemma11(s, eset), sorted(eset)
    assert pairs == 91604, pairs
    print(f"criterion 7: {pairs} (system, face) pairs, "
          f"{esets_checked} distinct E-sets, {lemma_checks} arrow audits")


# --- criterion 8: realized extension maps are exactly orthogonal ------------------


def test_criterion_08_realized_extensions_orthogonal():
    with budget("criterion 8", 30.0):
        for seed in range(250):
            m, data = realized_b2(seed)
            h = b2_nef_combine(m, data["h1"], data["h2"], data["c1"],
                               data["c2"], data["d"])
            assert h.dot(m.ray_vectors[data["c1"]]) == 0
            assert h.dot(m.ray_vectors[data["c2"]]) == 0
            assert is_nef(m, h)

            m, data = realized_cm(seed, m=2 + seed % 4)
            h = cm_nef_extension(m, data["h"], data["spokes"])
            for rid in m.ray_vectors:
                assert h.dot(m.ray_vectors[rid]) == 0
            assert is_nef(m, h)

            m, data = realized_d2(seed)
            h = d2_nef_extension(m, data["h"], data["s1"], data["s2"])
            assert h.dot(m.ray_vectors[data["s1"]]) == 0
            assert h.dot(m.ray_vectors[data["s2"]]) == 0
            assert is_nef(m, h)

            m, data = realized_fano(seed, m=2 + seed % 3)
            h = fano_nef_sum(m, data["rays"])
            for rid in data["rays"]:
                assert h.dot(m.ray_vectors[rid]) == 0
            assert h.dot(m.ray_vectors[data["extra"]]) > 0
            assert is_nef(m, h)


# --- criterion 9: planted dependences are found, decoys are not --------------------


def test_criterion_09_planted_dependences_detected():
    with budget("criterion 9", 30.0):
        for t in (2, 3, 4):
            for seed in (0, 7, 23):
                m, expected = planted_dependence(t, seed)
                order = [f"R{i}{j}" for i in range(1, t + 1) for j in (1, 2)]
                found = linear_dependence(m, order)
                assert found == tuple(expected), (t, seed, found, expected)
                assert check_prop238_form(m, m.base_system, order, found)

                ext, extra = planted_with_a1(t, seed)
                assert linear_dependence(ext, order + [extra]) is None
                fabricated = tuple(list(expected) + [Fraction(1)])
                assert not check_prop238_form(
                    ext, ext.base_system, order + [extra], fabricated
                )


# --- criterion 10: pipeline conformance on the bundled instances --------------------


def test_criterion_10_diagram_pipeline_conformance():
    with budget("criterion 10", 60.0):
        with open(f"{FIXTURES}/diagram_triangle.json", encoding="utf-8") as fh:
            tri = diagram_from_json(json.load(fh))
        rep = diagram_pipeline(tri, 2, Theorem12Rule(2))
        assert rep.conforming
        assert rep.counterexamples == ()
        assert rep.conditions_hold
        assert rep.chain["lhs_ok"] and rep.chain["rhs_ok"]

        with open(f"{FIXTURES}/diagram_square_258.json", encoding="utf-8") as fh:
            sq = diagram_from_json(json.load(fh))
        rep = diagram_pipeline(sq, 1, Theorem258Rule())
        assert rep.conforming
        assert rep.counterexamples == ()
        assert rep.replay["agrees"]
        assert all(e["ok"] for e in rep.eset_audit)

        # The square's maximal extremal sets pass the shape filter, so no
        # vertex may carry more than two contact-weight angles.
        s = sq.system
        for face in s.faces:
            if len(face) == 2:
                assert classify_extremal_set(s, face).passes_theorem258 is True
        third = Fraction(2, 3)
        for v, total in rep.vertex_sums.items():
            count = total / third
            assert count.denominator == 1 and count <= 2, (v, total)

        with open(f"{FIXTURES}/diagram_bad_quadrangle.json", encoding="utf-8") as fh:
            bad = diagram_from_json(json.load(fh))
        rep = diagram_pipeline(bad, 1, Theorem258Rule())
        assert not rep.conforming
        kinds = sorted(cx["kind"] for cx in rep.counterexamples)
        assert kinds == [
            "2-face-weight-deficit",
            "eset-diameter-exceeds-band",
            "eset-diameter-exceeds-band",
        ]
