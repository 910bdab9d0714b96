"""Exact arithmetic kernel: rational coercion and the one lcm scaling of
rationals to integers (`integral`), vectors and symmetric trilinear forms,
small dense linear algebra over the rationals, the inequality solver, the
instance-file field tables with their reader and writer, and the face-mask
format that polytopes and ray systems share.

Everything here is immutable and pure.  No floating point enters any
verification path; distances may be ``INF`` (unreachable), which is the one
place a float sneaks in, and it is never mixed into rational arithmetic.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, count, permutations, repeat
from operator import attrgetter, mul
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

INF = float("inf")


class DimensionMismatch(ValueError):
    """Vector or form dimensions disagree."""


class SystemFormatError(ValueError):
    """The instance data is structurally unusable (not merely invalid).  The
    message starts with `path`, the JSON keys down to the field at fault."""

    def __init__(self, message: str, *path: str | int) -> None:
        super().__init__(message)
        self.path = list(path)

    def __str__(self) -> str:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in self.path)
        return f"{where.lstrip('.')}: {self.args[0]}" if where else self.args[0]


def rational(value: object) -> Fraction:
    """Coerce an int, a string like ``"3/4"`` or ``"-2"``, or a Fraction.
    Booleans are not numbers here, although ``bool`` subclasses ``int``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def number(value: object) -> int | Fraction:
    """`rational(value)` as an `int` where integral, the one type of pairing
    and anticanonical entries.  A string tries `int` before `Fraction`."""
    if type(value) is int:
        return value
    if type(value) is str:
        try:
            return int(value)
        except ValueError:
            pass
    q = rational(value)
    return q.numerator if q.denominator == 1 else q


def format_rational(q: Fraction | int) -> str:
    """Render as ``p/q``, or just ``p`` for integers (the wire format)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 whenever k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial expects natural numbers")
    return math.comb(n, k)


@dataclass(frozen=True)
class RVector:
    """A dense rational vector of fixed dimension."""

    entries: tuple[Fraction, ...]

    @staticmethod
    def of(values: Iterable[object]) -> "RVector":
        return RVector(tuple(rational(v) for v in values))

    @staticmethod
    def zero(dim: int) -> "RVector":
        return RVector((Fraction(0),) * dim)

    @staticmethod
    def unit(dim: int, index: int) -> "RVector":
        entries = [Fraction(0)] * dim
        entries[index] = Fraction(1)
        return RVector(tuple(entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def _check(self, other: "RVector") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def dot(self, other: "RVector") -> Fraction:
        self._check(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def __add__(self, other: "RVector") -> "RVector":
        self._check(other)
        return RVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "RVector") -> "RVector":
        self._check(other)
        return RVector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "RVector":
        return RVector(tuple(-a for a in self.entries))

    def scale(self, c: object) -> "RVector":
        c = rational(c)
        return RVector(tuple(c * a for a in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RVector(" + ", ".join(format_rational(a) for a in self.entries) + ")"


@dataclass(frozen=True)
class TrilinearForm:
    """A symmetric trilinear form stored sparsely on sorted index triples.

    ``coeffs`` maps sorted triples (i, j, k) to nonzero rational values; the
    symmetric extension to all index orders is implied.
    """

    dim: int
    coeffs: tuple[tuple[tuple[int, int, int], Fraction], ...]

    @staticmethod
    def of(dim: int, entries: Iterable[tuple[Sequence[int], object]]) -> "TrilinearForm":
        merged: dict[tuple[int, int, int], Fraction] = {}
        for idx, value in entries:
            i, j, k = sorted(idx)
            if not (0 <= i and k < dim):
                raise DimensionMismatch(f"index {idx!r} out of range for dim {dim}")
            v = rational(value)
            merged[(i, j, k)] = merged.get((i, j, k), Fraction(0)) + v
        items = tuple(sorted((key, v) for key, v in merged.items() if v != 0))
        return TrilinearForm(dim, items)

    def __iter__(self):
        """The stored entries as (i, j, k, value), the order they are kept in."""
        return ((i, j, k, v) for (i, j, k), v in self.coeffs)

    def evaluate(self, a: RVector, b: RVector, c: RVector) -> Fraction:
        for v in (a, b, c):
            if v.dim != self.dim:
                raise DimensionMismatch(f"vector dim {v.dim} vs form dim {self.dim}")
        return self.contract(a, b).dot(c)

    def contract(self, a: RVector, b: RVector) -> RVector:
        """The linear functional T(a, b, -) as a coordinate vector."""
        for v in (a, b):
            if v.dim != self.dim:
                raise DimensionMismatch(f"vector dim {v.dim} vs form dim {self.dim}")
        out = [Fraction(0)] * self.dim
        for key, value in self.coeffs:
            for p, q, r in set(permutations(key)):
                out[r] += value * a[p] * b[q]
        return RVector(tuple(out))


# ---------------------------------------------------------------------------
# Dense exact linear algebra.  Matrices are lists of row tuples of Fractions.
# ---------------------------------------------------------------------------


def _as_rows(rows: Sequence[Sequence[object]]) -> list[list[Fraction]]:
    return [[rational(x) for x in row] for row in rows]


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows: Sequence[Sequence[object]]) -> int:
    _, pivots = _rref(_as_rows(rows))
    return len(pivots)


def span_rank(vectors: Sequence[RVector]) -> int:
    return rank([v.entries for v in vectors])


def kernel_of_columns(vectors: Sequence[RVector]) -> list[tuple[Fraction, ...]]:
    """Basis of {a : sum_i a_i * vectors[i] = 0}.

    The vectors are the columns of the eliminated matrix, so the kernel lives
    in coefficient space (one coordinate per input vector).
    """
    if not vectors:
        return []
    dim = vectors[0].dim
    for v in vectors:
        if v.dim != dim:
            raise DimensionMismatch("mixed vector dimensions")
    k = len(vectors)
    rows = [[vectors[j][i] for j in range(k)] for i in range(dim)]
    reduced, pivots = _rref(rows)
    pivot_set = set(pivots)
    basis: list[tuple[Fraction, ...]] = []
    for free in range(k):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * k
        vec[free] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -reduced[row_idx][free]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# Exact linear inequality feasibility (variable elimination with witness).
# ---------------------------------------------------------------------------

Constraint = tuple[Sequence[object], object]


def solve_inequalities(
    constraints: Iterable[Constraint], nvars: int
) -> tuple[Fraction, ...] | None:
    """Find x with coeffs . x >= rhs for every (coeffs, rhs) constraint.

    Eliminates one variable at a time, then back-substitutes a witness.
    Returns one exact solution or None when the system is infeasible.  All
    inequalities are non-strict; strict requirements must be encoded by the
    caller (e.g. positivity as ``x_i >= 1`` on a scale-invariant system).
    Each x_k takes its largest lower bound, or with none the least of 0 and
    its upper bounds, so where every variable has a lower bound the witness
    is the lexicographic minimum (x_0 first) of the solutions.
    """
    rows: set[tuple[int, ...]] = set()
    for coeffs, rhs in constraints:
        row = tuple(map(number, coeffs))
        if len(row) != nvars:
            raise DimensionMismatch("constraint arity does not match nvars")
        rows.add(_primitive((-number(rhs), *row)))
    return _eliminate(rows, nvars)


def _eliminate(rows: set[tuple[int, ...]], nvars: int) -> tuple[Fraction, ...] | None:
    """Fourier-Motzkin on primitive integer rows r, each meaning
    r . (1, x) >= 0.  The last variable goes by pairing each row that bounds
    it from below with each that bounds it from above, with no division;
    only back-substitution divides."""
    if nvars == 0:
        return () if all(r[0] >= 0 for r in rows) else None
    lowers = [r for r in rows if r[-1] > 0]
    uppers = [r for r in rows if r[-1] < 0]
    projected = {r[:-1] for r in rows if r[-1] == 0}
    projected.update(
        _primitive([lo[-1] * u - up[-1] * l for u, l in zip(up[:-1], lo)])
        for lo in lowers
        for up in uppers
    )
    sub = _eliminate(projected, nvars - 1)
    if sub is None:
        return None
    # The bound each row puts on the last variable, given sub.
    at = [Fraction(-sum(map(mul, r[1:], sub), r[0]), r[-1]) for r in lowers or uppers]
    return (*sub, max(at) if lowers else min([Fraction(0), *at]))


def integral(row: Sequence[int | Fraction]) -> tuple[tuple[int, ...], int]:
    """The row times the lcm of its denominators, as integers, and that lcm
    (1 for the empty row)."""
    lcm = math.lcm(*(x.denominator for x in row))
    return tuple(x.numerator * (lcm // x.denominator) for x in row), lcm


def _primitive(row: Sequence[int | Fraction]) -> tuple[int, ...]:
    """The positive multiple of a rational row with coprime integer entries
    (a zero row stays zero): `integral`'s integers over their gcd."""
    ints, _ = integral(row)
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints)


def scale_primitive(values: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale a rational vector to the smallest integer vector with the same
    direction (positive scaling only); the zero vector is returned as-is."""
    return tuple(map(Fraction, _primitive([rational(v) for v in values])))


# ---------------------------------------------------------------------------
# Instance files: each kind's fields, declared once, the one walker that
# reads a file through them, and its inverse, which writes one.
# ---------------------------------------------------------------------------


class RayType(Enum):
    I = "I"
    II = "II"
    SMALL = "small"


class Leaf(NamedTuple):
    """A scalar field: the JSON types it accepts; `read`, which turns an
    accepted value into the program's or raises ValueError; and `write`, its
    inverse.  None stands for the identity."""

    expected: str
    types: set[type]
    read: Optional[Callable[[Any], Any]] = None
    write: Optional[Callable[[Any], Any]] = None


class Opt(NamedTuple):
    """An optional field, read as `default` when absent or null."""

    shape: object
    default: object = None


ID = Leaf("a string", {str})
INT = Leaf("an integer", {int})
BOOL = Leaf("true or false", {bool})
RATIONAL = Leaf('an integer or a "p/q" string', {int, str}, number, format_rational)
VERTEX = Leaf("a string or an integer", {str, int})
RAY_TYPE = Leaf("I, II or small", {str}, RayType, attrgetter("value"))

# A shape is a Leaf; [shape], a list of it; (shape, ...), a list with one
# shape per position; {key: shape}, an object with these fields (Opt marks
# the optional ones); {str: shape}, an object from any key to shape; or the
# name of another kind, an object that kind's parser reads.  The keys of a
# kind are the parameters of the constructor its parser calls, and the
# attributes `to_json` writes, in this order.
KINDS: dict[str, dict] = {
    "system": {"rays": [{"id": ID, "type": RAY_TYPE, "divisor": Opt(ID)}],
               "divisors": [ID], "pairing": [[RATIONAL]], "meets": Opt([[ID]], ()),
               "fano_mode": Opt(BOOL, False), "faces": Opt([[ID]]),
               "anticanonical": Opt([RATIONAL])},
    "polytope": {"dim": INT, "vertices": [VERTEX], "facets": [[VERTEX]]},
    "realized": {"rho": INT, "base_system": "system", "ray_vectors": {str: [RATIONAL]},
                 "divisor_vectors": {str: [RATIONAL]},
                 "intersection_form": Opt([(INT, INT, INT, RATIONAL)]),
                 "anticanonical_vector": Opt([RATIONAL])},
    "diagram": {"system": "system", "polytope": "polytope", "facet_rays": [ID],
                "perp_rays": Opt([ID], ()), "model": Opt("realized")},
}

_MISSING = object()


def walk(value: object, shape: object, parsers: Optional[Mapping[str, Callable]] = None) -> Any:
    """`value` read as `shape`, another kind's object by `parsers[kind]`.  The
    first field at fault, in declaration and list order, raises
    SystemFormatError with its JSON path, which is built only then."""
    kind = type(shape)
    if kind is str:
        return parsers[shape](value)
    if kind is Leaf:
        try:
            if type(value) in shape.types:
                return value if shape.read is None else shape.read(value)
        except ValueError:
            pass
        raise SystemFormatError(f"expected {shape.expected}, got {reprlib.repr(value)}")
    if kind is dict:
        if type(value) is not dict:
            raise SystemFormatError(f"expected an object, got {reprlib.repr(value)}")
        fields = zip(value, repeat(shape[str])) if str in shape else shape.items()
        items = ((key, value.get(key, _MISSING), sub) for key, sub in fields)
    else:
        if type(value) is not list:
            raise SystemFormatError(f"expected a list, got {reprlib.repr(value)}")
        if kind is tuple and len(value) != len(shape):
            raise SystemFormatError(f"expected {len(shape)} entries, got {reprlib.repr(value)}")
        fast = None if kind is tuple else _fast(value, shape[0])
        if fast is not None:
            return fast
        items = zip(count(), value, shape if kind is tuple else repeat(shape[0]))
    out = {}
    for key, v, sub in items:
        if type(sub) is Opt:
            if v is None or v is _MISSING:
                out[key] = sub.default
                continue
            sub = sub.shape
        elif v is _MISSING:
            raise SystemFormatError("missing", key)
        try:
            out[key] = walk(v, sub, parsers)
        except SystemFormatError as exc:
            exc.path.insert(0, key)
            raise
    return out if kind is dict else list(out.values())


def _fast(values: list, shape: object) -> Optional[list]:
    """The reading of `values`, a list of `shape`, when `shape` is lists
    around a Leaf: one pass over the entries' types and one `map` per list,
    not a walk per entry.  None when an entry does not fit."""
    if type(shape) is list:
        if not {*map(type, values)} <= {list}:
            return None
        item = shape[0]
        if type(item) is Leaf and item.read is None:  # lists of ids: one pass in all
            return values if {*map(type, chain.from_iterable(values))} <= item.types else None
        rows = [_fast(row, item) for row in values]
        return None if None in rows else rows
    if type(shape) is Leaf and {*map(type, values)} <= shape.types:
        try:
            return values if shape.read is None else list(map(shape.read, values))
        except ValueError:
            pass
    return None


def vertex_key(v: object) -> tuple[str, str]:
    """The order of a set of scalar ids that may mix strings and integers."""
    return (type(v).__name__, str(v))


# Face masks, the one format of polytope and ray-system faces: `ids[k]` holds
# bit 1 << k, the first id in sorted order the highest bit, so a mask read from
# the top visits its ids sorted, and descending masks of one size sort by ids.


def bit_order(ids: Iterable, key: Optional[Callable] = None) -> tuple[tuple, dict]:
    """The ids by bit position, and each id's bit."""
    ranked = tuple(sorted(ids, key=key, reverse=True))
    return ranked, {v: 1 << k for k, v in enumerate(ranked)}


def face_order(masks: Iterable[int]) -> list[int]:
    return sorted(sorted(masks, reverse=True), key=int.bit_count)


def positions(mask: int) -> list[int]:
    """The bit positions of a mask, highest first."""
    out = []
    while mask:
        k = mask.bit_length() - 1
        out.append(k)
        mask ^= 1 << k
    return out


def mask_names(ids: Sequence, mask: int) -> list:
    """The sorted ids of a mask: the loop of `positions`, taking each bit's
    id as it goes, with no list of positions in between."""
    out = []
    while mask:
        k = mask.bit_length() - 1
        out.append(ids[k])
        mask ^= 1 << k
    return out


def to_json(value: object, shape: object) -> Any:
    """`value` written as `shape`, the inverse of `walk`: an object's field
    is its attribute of the same name, a nested kind is written through its
    own table, an optional field that is None is left out, and a set is
    written sorted."""
    kind = type(shape)
    if kind is str:
        shape, kind = KINDS[shape], dict
    if kind is Leaf:
        return value if shape.write is None else shape.write(value)
    if kind is dict:
        if str in shape:
            return {key: to_json(v, shape[str]) for key, v in value.items()}
        out = {}
        for key, sub in shape.items():
            v = getattr(value, key)
            if type(sub) is Opt:
                if v is None:
                    continue
                sub = sub.shape
            out[key] = to_json(v, sub)
        return out
    if kind is tuple:
        return list(map(to_json, value, shape))
    item = shape[0]
    if type(item) is Leaf:  # scalars in one pass; ids sort as plain strings
        out = value if item.write is None else map(item.write, value)
        if type(value) is frozenset:
            return sorted(out, key=None if item is ID else vertex_key)
        return list(out)
    out = [to_json(v, item) for v in value]
    return sorted(out) if type(value) is frozenset else out
