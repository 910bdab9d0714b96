"""Command-line interface.

Exit codes: 0 for a clean run, 1 when an instance violates an invariant or a
verification fails, 2 for usage or parse errors.  Every command is
deterministic: the same inputs (and seed, where applicable) produce the same
bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import Callable, Optional

from .bounds import (
    Theorem12Rule,
    Theorem258Rule,
    check_band_width,
    diagram_from_json,
    diagram_pipeline,
    lemma14_max_n,
    max_integer_below,
    theorem12_bound,
    validate_diagram,
)
from .core import SystemFormatError, format_rational, rational
from .generate import POLYTOPES, SYSTEMS
from .polytope import (
    PolytopeError,
    a02_bound,
    average_faces,
    polytope_from_json,
    polytope_to_json,
)
from .raysystem import (
    RayDivisorSystem,
    Violation,
    check_normalization,
    system_from_json,
    system_to_json,
    validate,
)
from .realized import model_from_json
from .structure import classify_report, contact_violations, esets_report

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# Instance files: the one place the package reads and writes them.
# ---------------------------------------------------------------------------

# kind -> parser.  Each parser is looked up when called, so rebinding one
# (as a tracer wrapping the package's functions does) takes effect here.
FROM_JSON = {
    "system": lambda data: system_from_json(data),
    "realized": lambda data: model_from_json(data),
    "polytope": lambda data: polytope_from_json(data),
    "diagram": lambda data: diagram_from_json(data),
}
SYSTEM_KINDS = ("system", "realized", "diagram")
NOT_A_SYSTEM = "holds a {kind}, not a ray-divisor system"


def detect_kind(data: object) -> str:
    if not isinstance(data, dict):
        raise SystemFormatError("instance file must contain a JSON object")
    if "system" in data and "polytope" in data:
        return "diagram"
    if "ray_vectors" in data:
        return "realized"
    if "vertices" in data and "facets" in data:
        return "polytope"
    if "rays" in data and "pairing" in data:
        return "system"
    raise SystemFormatError("unrecognized instance file (unknown key set)")


def _read_json(path: str) -> object:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:  # nesting too deep for the parser is invalid JSON too
        raise json.JSONDecodeError("nesting too deep", text, 0) from None


def load_instance(
    path: str, kinds: tuple[str, ...], wrong_kind: str
) -> tuple[str, object]:
    """The kind and parsed instance of a file that must hold one of `kinds`;
    otherwise `wrong_kind`, formatted with the kind, is the error.  An error
    in reading, detecting or building the file names the file first."""
    try:
        data = _read_json(path)
        kind = detect_kind(data)
        if kind not in kinds:
            raise SystemFormatError(wrong_kind.format(kind=kind))
        return kind, FROM_JSON[kind](data)
    except PolytopeError as exc:  # exits 1, as every PolytopeError does
        raise PolytopeError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:  # an OSError's own text repeats the path
        raise ValueError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _system_of(kind: str, inst) -> RayDivisorSystem:
    if kind == "realized":
        return inst.base_system
    if kind == "diagram":
        return inst.system
    return inst


def _dumps(payload: object) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True)`, written in one pass
    into one list.  With an indent, `json` encodes in pure Python through a
    generator per nesting level; this writer makes the same bytes without
    them.  A payload nested past the recursion limit, or circular, goes to
    `json`, which raises its own error."""
    out: list[str] = []
    try:
        _write(payload, out, "\n")
    except RecursionError:
        return json.dumps(payload, indent=2, sort_keys=True)
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii


def _write(value: object, out: list, newline: str) -> None:
    """Append the indented JSON of `value` to `out`; `newline` is the line
    break and indent of its own level.  Types are tested in `json`'s order,
    and a value of no type tested here (a float, or an unsupported type) is
    encoded, or refused, by `json` itself."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + _json_key(key) + ": ")
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(value))


def _json_key(key: object) -> str:
    """An object key as `json` writes it, or `json`'s TypeError."""
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (float, int)):  # bools are ints
        return _encode_str(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit(args: argparse.Namespace, payload: object, text_lines: list[str]) -> None:
    if getattr(args, "format", "text") == "json":
        print(_dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _write_atomic(path: str, content: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _check_instance(kind: str, data: dict) -> tuple[list[Violation], list[Violation]]:
    """The invariant violations and normalization notes of one instance.

    Well-formed content that cannot be built is a violation of the part that
    failed, also when that part is nested in a diagram bundle: an invalid
    polytope, or a realized model whose vectors disagree with its system.
    """
    try:
        inst = FROM_JSON[kind](data)
    except SystemFormatError:
        raise
    except PolytopeError as exc:
        return [Violation("polytope-invalid", (), str(exc))], []
    except ValueError as exc:
        return [Violation("model-inconsistent", (), str(exc))], []
    if kind == "polytope":
        return [], []
    s = _system_of(kind, inst)
    violations = validate(s) + contact_violations(s)
    if kind == "diagram":
        try:
            validate_diagram(inst)
        except ValueError as exc:
            violations.append(Violation("correspondence-mismatch", (), str(exc)))
    return violations, check_normalization(s)


def check_one(path: str) -> dict:
    """Validate one instance file; the result dict always carries
    path/kind/ok plus violations, notes, and a parse error if any."""
    result: dict = {"path": path, "kind": None, "ok": False,
                    "violations": [], "notes": []}
    try:
        data = _read_json(path)
        kind = result["kind"] = detect_kind(data)
        violations, notes = _check_instance(kind, data)
    except (SystemFormatError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
        return result
    result["violations"] = [
        {"code": v.code, "subjects": list(v.subjects), "detail": v.detail}
        for v in violations
    ]
    result["notes"] = [
        f"non-normalized: {v.code} ({', '.join(v.subjects)})" for v in notes
    ]
    result["ok"] = not violations
    return result


def _check_exit(results: list[dict]) -> int:
    if any("error" in r for r in results):
        return EXIT_USAGE
    if any(not r["ok"] for r in results):
        return EXIT_VIOLATION
    return EXIT_OK


def _check_text(r: dict) -> list[str]:
    if "error" in r:
        return [f"{r['path']}: unreadable ({r['error']})"]
    head = "OK" if r["ok"] else f"{len(r['violations'])} violation(s)"
    lines = [f"{r['path']}: {head} [{r['kind']}]"]
    for v in r["violations"]:
        subjects = ", ".join(v["subjects"])
        lines.append(f"  {v['code']} [{subjects}]: {v['detail']}")
    for note in r["notes"]:
        lines.append(f"  note: {note}")
    return lines


def cmd_check(args: argparse.Namespace) -> int:
    paths: list[str] = []
    for target in args.paths:
        if os.path.isdir(target):
            paths.extend(
                sorted(
                    os.path.join(target, name)
                    for name in os.listdir(target)
                    if name.endswith(".json")
                )
            )
        else:
            paths.append(target)
    if not paths:
        print("no instance files found", file=sys.stderr)
        return EXIT_USAGE
    results = [check_one(p) for p in paths]
    _emit(
        args,
        results[0] if len(results) == 1 else results,
        [line for r in results for line in _check_text(r)],
    )
    return _check_exit(results)


# ---------------------------------------------------------------------------
# classify / esets
# ---------------------------------------------------------------------------


def _report_on(path: str, report: Callable[[RayDivisorSystem], dict]) -> dict:
    """`report` on the system a file holds.  An error in deciding it, such as
    a face family that leaves a ray out, names the file as a load error does."""
    s = _system_of(*load_instance(path, SYSTEM_KINDS, NOT_A_SYSTEM))
    try:
        return report(s)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_classify(args: argparse.Namespace) -> int:
    report = _report_on(args.path, classify_report)
    lines = ["components:"]
    for comp in report["components"]:
        lines.append(f"  {comp['type']} [{', '.join(comp['rays'])}]")
    if not report["components"]:
        lines.append("  (none)")
    lines.append("minimal non-extremal sets:")
    for eset in report["esets"]:
        witness = eset["witness"]
        extra = f" witness={witness}" if witness is not None else ""
        lines.append(f"  case {eset['case']} [{', '.join(eset['rays'])}]{extra}")
    if not report["esets"]:
        lines.append("  (none)")
    lines.append("failures:")
    for fail in report["failures"]:
        lines.append(f"  {fail['reason']} [{', '.join(fail['rays'])}]")
    if not report["failures"]:
        lines.append("  (none)")
    lines.append("maximal extremal sets:")
    for ms in report["maximal_sets"]:
        verdict = "pass" if ms["passes_theorem258"] else "fail"
        lines.append(f"  [{', '.join(ms['rays'])}] shape filter: {verdict}")
    if report["e2_pairs"]:
        lines.append("contracting pairs with a small ray:")
        for pair in report["e2_pairs"]:
            lines.append(f"  [{', '.join(sorted(pair))}]")
    _emit(args, report, lines)
    return EXIT_OK


def cmd_esets(args: argparse.Namespace) -> int:
    report = _report_on(args.path, esets_report)
    entries = report["esets"]
    lines = []
    for e in entries:
        if "case" in e:
            head = f"case {e['case']}"
            if e["witness"] is not None:
                head += f" witness={e['witness']}"
        else:
            head = f"unclassifiable ({e['failure']})"
        lines.append(f"[{', '.join(e['rays'])}]: {head}")
        lines.append(
            f"  members-only nonneg combination excluded: {e['condition_ii_members']}"
        )
        if e["condition_iii_full"] is not None:
            lines.append(
                f"  full nef combination: ({', '.join(e['condition_iii_full'])})"
            )
            lines.append(f"  bipartition arrows both ways: {e['bipartition_arrows']}")
        else:
            lines.append("  full nef combination: none")
    if not entries:
        lines = ["no minimal non-extremal sets"]
    _emit(args, report, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def cmd_bound(args: argparse.Namespace) -> int:
    check_band_width(args.d)
    if args.lemma14:
        if args.C is None or args.D is None:
            print("--lemma14 needs --C and --D", file=sys.stderr)
            return EXIT_USAGE
        n = lemma14_max_n(args.C, args.D)
        payload = {
            "C": format_rational(args.C),
            "D": format_rational(args.D),
            "max_n": n,
            "rho_bound": n + 1,
        }
        lines = [
            f"C = {format_rational(args.C)}, D = {format_rational(args.D)}",
            f"max n = {n}",
            f"rho <= {n + 1}",
        ]
        _emit(args, payload, lines)
        return EXIT_OK
    if args.c1 is None or args.c2 is None:
        print("need --c1 and --c2 (or --lemma14 with --C/--D)", file=sys.stderr)
        return EXIT_USAGE
    value = theorem12_bound(args.c1, args.c2)
    cap = max_integer_below(value)
    payload = {
        "C1": format_rational(args.c1),
        "C2": format_rational(args.c2),
        "d": args.d,
        "bound": format_rational(value),
        "max_integer": cap,
        "relative_bound": cap + 1,
    }
    lines = [
        f"C1 = {format_rational(args.c1)}, C2 = {format_rational(args.c2)}, band d = {args.d}",
        f"dim gamma < {format_rational(value)}",
        f"dim N1 - dim alpha <= {cap + 1}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# polytope-stats
# ---------------------------------------------------------------------------


def cmd_polytope_stats(args: argparse.Namespace) -> int:
    _, p = load_instance(args.path, ("polytope",), "not a polytope file")
    fv = p.fvector()
    payload: dict = {
        "dim": p.dim,
        "f_vector": list(fv.counts),
        "simple": p.is_simple,
    }
    lines = [
        f"dim = {p.dim}",
        f"f-vector = ({', '.join(str(c) for c in fv.counts)})",
        f"simple: {'yes' if p.is_simple else 'no'}",
    ]
    skipped = None
    if not p.is_simple:
        skipped = "the polytope is not simple"
    elif p.dim < 3:
        skipped = f"the bound needs dimension at least 3, not {p.dim}"
    if skipped:
        lines.append(f"average-face bound skipped: {skipped}")
        payload["bound_checked"] = False
        _emit(args, payload, lines)
        return EXIT_OK
    emp = average_faces(p, 0, 2)
    bnd = a02_bound(p.dim)
    strict = emp < bnd
    payload.update(
        {
            "bound_checked": True,
            "average_vertices_per_2face": format_rational(emp),
            "bound": format_rational(bnd),
            "margin": format_rational(bnd - emp),
            "strict": strict,
        }
    )
    lines += [
        f"average vertices per 2-face = {format_rational(emp)}",
        f"bound = {format_rational(bnd)}",
        f"margin = {format_rational(bnd - emp)}",
        f"strict inequality holds: {'yes' if strict else 'NO'}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if strict else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# diagram
# ---------------------------------------------------------------------------


# rule name -> builder from the `diagram` options; the first is the default.
RULES = {
    "theorem12": lambda o: Theorem12Rule(o.d),
    "theorem258": lambda o: Theorem258Rule(),
}


def cmd_diagram(args: argparse.Namespace) -> int:
    _, inst = load_instance(args.path, ("diagram",), "not a diagram bundle")
    check_band_width(args.d)  # out of its domain: exit 2, not a correspondence error
    rule = RULES[args.rule](args)
    try:
        report = diagram_pipeline(inst, args.d, rule)
    except ValueError as exc:
        print(f"correspondence error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    j = report.to_json()
    lines = [
        f"rule: {j['rule']}",
        f"n = {j['n']}, C = {j['C']}, D = {j['D']}",
        f"vertex sums within budget: {'yes' if report.condition1_holds else 'NO'}",
        f"2-face sums reach floor: {'yes' if report.condition2_holds else 'NO'}",
        f"chain: {j['chain']['lhs']} >= {j['chain']['total']} >= {j['chain']['rhs']}",
        f"empirical C1 = {j['empirical_C1']}, C2 = {j['empirical_C2']}",
    ]
    ib = j["implied_bound"]
    lines.append(
        f"implied: rhs(n) = {ib['rhs_for_n']}, strict: "
        f"{'yes' if ib['strict_ok'] else 'NO'}, max admissible n = {ib['max_admissible_n']}"
    )
    if report.replay is not None:
        lines.append(
            "contact-only replay agrees: "
            + ("yes" if j["replay"].get("agrees") else "NO")
        )
    for entry in j.get("eset_audit", []):
        lines.append(
            f"set [{', '.join(entry['rays'])}]: diameter {entry['diameter']}"
            f" {'ok' if entry['ok'] else 'EXCEEDS BAND'}"
        )
    for cx in j.get("counterexamples", []):
        parts = ", ".join(f"{k}={v}" for k, v in sorted(cx.items()) if k != "kind")
        lines.append(f"counterexample: {cx['kind']} ({parts})")
    conforming = bool(report.conforming)
    lines.append(f"conforming: {'yes' if conforming else 'NO'}")
    _emit(args, j, lines)
    return EXIT_OK if conforming else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

POLYTOPE_FAMILIES = tuple(POLYTOPES)
SYSTEM_FAMILIES = tuple(SYSTEMS)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family in POLYTOPES:
        payload = polytope_to_json(POLYTOPES[args.family](args))
    else:
        s, rejections = SYSTEMS[args.family](args)
        payload = system_to_json(s)
        if rejections is not None:
            print(f"rejections before a valid draw: {rejections}", file=sys.stderr)
    content = _dumps(payload) + "\n"
    if args.out:
        _write_atomic(args.out, content)
    else:
        sys.stdout.write(content)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moribound",
        description="Face-dimension bounds for contraction-ray systems: "
        "validation, classification, and weighted-angle verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="validate instance files")
    p_check.add_argument("paths", nargs="+", metavar="PATH",
                         help="instance files or directories of .json files")
    add_format(p_check)
    p_check.set_defaults(func=cmd_check)

    p_classify = sub.add_parser("classify", help="component and E-set report")
    p_classify.add_argument("path")
    add_format(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_esets = sub.add_parser("esets", help="minimal non-extremal sets")
    p_esets.add_argument("path")
    add_format(p_esets)
    p_esets.set_defaults(func=cmd_esets)

    p_bound = sub.add_parser("bound", help="closed-form dimension bounds")
    p_bound.add_argument("--d", type=int, default=2, help="distance band width")
    p_bound.add_argument("--c1", type=rational, default=None)
    p_bound.add_argument("--c2", type=rational, default=None)
    p_bound.add_argument("--lemma14", action="store_true",
                         help="vertex-budget mode: max n from (C, D)")
    p_bound.add_argument("--C", type=rational, default=None)
    p_bound.add_argument("--D", type=rational, default=None)
    add_format(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_stats = sub.add_parser("polytope-stats", help="f-vector and face averages")
    p_stats.add_argument("path")
    add_format(p_stats)
    p_stats.set_defaults(func=cmd_polytope_stats)

    p_diagram = sub.add_parser("diagram", help="weighted-angle verification")
    p_diagram.add_argument("path")
    p_diagram.add_argument("--d", type=int, default=2)
    p_diagram.add_argument("--rule", choices=tuple(RULES), default=next(iter(RULES)))
    add_format(p_diagram)
    p_diagram.set_defaults(func=cmd_diagram)

    p_gen = sub.add_parser("gen", help="generate instance files")
    p_gen.add_argument("--family", required=True,
                       choices=POLYTOPE_FAMILIES + SYSTEM_FAMILIES)
    p_gen.add_argument("--n", type=int, default=3)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--k", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: `parse_args` leaves it unchanged, and
    building it costs about as much as a small verdict."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PolytopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (OSError, ValueError) as exc:
        # an unreadable or malformed file, or an argument out of its domain
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
