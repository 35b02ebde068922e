"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial in ``nvars`` variables is a finite set of terms, each a pair
(exponent tuple, nonzero Fraction coefficient).  Terms are kept in graded
lexicographic order (higher total degree first, then lexicographically larger
exponent tuple first), so two equal polynomials have identical
representations and ``==`` is structural.

Rationals are plain ``fractions.Fraction`` values: always in lowest terms,
positive denominator, exact arithmetic throughout.  No floating point is used
anywhere in this package.

The module also provides exact linear algebra over the rationals: rank and
right-kernel bases via fraction-free (Bareiss) elimination, which bounds
intermediate coefficient growth compared to naive rational elimination.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]

# Signed integer, p/q or exact decimal.  Fraction alone also takes exponent
# notation, and "1e999999999999" would build that power of ten in full.
_RATIONAL = re.compile(r"[+-]?(?:\d+(?:/\d+)?|\d*\.\d+|\d+\.)")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer, or exact decimal text into a Fraction."""
    stripped = text.strip()
    if _RATIONAL.fullmatch(stripped):
        try:
            return Fraction(stripped)
        except ZeroDivisionError:
            pass
    raise ValueError(f"not a rational number: {text!r}")


def format_rational(value: Scalar) -> str:
    """Format a rational as "p/q" in lowest terms (denominator 1 kept explicit)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class MultiIndex:
    """A differentiation multi-index (α₁,…,αₙ)."""

    exponents: Exponents

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))
        if any(e < 0 for e in self.exponents):
            raise ValueError(f"negative entry in multi-index {self.exponents}")

    @property
    def total(self) -> int:
        return sum(self.exponents)

    def __len__(self) -> int:
        return len(self.exponents)

    def __iter__(self) -> Iterator[int]:
        return iter(self.exponents)


def _as_exponents(alpha: MultiIndex | Sequence[int], nvars: int, what: str) -> Exponents:
    exps = tuple(alpha.exponents if isinstance(alpha, MultiIndex) else (int(e) for e in alpha))
    if len(exps) != nvars:
        raise ValueError(f"{what} has length {len(exps)}, expected {nvars}")
    if any(e < 0 for e in exps):
        raise ValueError(f"{what} has a negative entry: {exps}")
    return exps


def _sorted_terms(terms: Mapping[Exponents, Fraction]) -> tuple[tuple[Exponents, Fraction], ...]:
    """Terms in canonical order: higher total degree first, then lex-descending."""
    return tuple(sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True))


class MultiPoly:
    """An immutable polynomial in a fixed number of variables.

    Construct with a mapping or iterable of (exponent tuple, coefficient)
    pairs; zero coefficients are dropped and duplicate exponent tuples are
    summed.  All arithmetic returns new values; instances are hashable and
    safe to share.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(
        self,
        nvars: int,
        terms: Mapping[Exponents, Scalar] | Iterable[tuple[Exponents, Scalar]] = (),
    ) -> None:
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Exponents, Fraction] = {}
        for exps, coeff in items:
            e = tuple(int(x) for x in exps)
            if len(e) != nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e} for nvars={nvars}")
            c = acc.get(e, Fraction(0)) + Fraction(coeff)
            if c:
                acc[e] = c
            else:
                acc.pop(e, None)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", _sorted_terms(acc))

    @classmethod
    def _from_terms(cls, nvars: int, terms: Mapping[Exponents, Fraction]) -> MultiPoly:
        """A polynomial from terms the package built itself, without checks.

        ``terms`` must map distinct tuples of ``nvars`` non-negative ints to
        nonzero Fractions; they are only put in canonical order.  Every
        outside input goes through the validating constructor instead.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", _sorted_terms(terms))
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> MultiPoly:
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> MultiPoly:
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> MultiPoly:
        """The monomial x_index (0-based position)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @classmethod
    def linear_form(cls, coeffs: Sequence[Scalar]) -> MultiPoly:
        """Σ coeffs[i]·x_i."""
        nvars = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                terms[tuple(1 if j == i else 0 for j in range(nvars))] = Fraction(c)
        return cls(nvars, terms)

    # -- structure ---------------------------------------------------------

    def terms(self) -> tuple[tuple[Exponents, Fraction], ...]:
        """Terms in canonical (graded-lex descending) order."""
        return self._terms

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        e = tuple(int(x) for x in exps)
        for te, tc in self._terms:
            if te == e:
                return tc
        return Fraction(0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return sum(self._terms[0][0]) if self._terms else -1

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e, _ in self._terms}
        return len(degrees) <= 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, self._terms))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def _require_same_shape(self, other: MultiPoly) -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"mixed variable counts: {self.nvars} vs {other.nvars}")

    def _combine(self, other: MultiPoly | Scalar, subtract: bool) -> MultiPoly:
        """self ± other in one pass over the terms of other."""
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same_shape(other)
        acc = dict(self._terms)
        for e, c in other._terms:
            s = acc.get(e, 0) - c if subtract else acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return MultiPoly._from_terms(self.nvars, acc)

    def __add__(self, other: MultiPoly | Scalar) -> MultiPoly:
        return self._combine(other, False)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly._from_terms(self.nvars, {e: -c for e, c in self._terms})

    def __sub__(self, other: MultiPoly | Scalar) -> MultiPoly:
        return self._combine(other, True)

    def __rsub__(self, other: Scalar) -> MultiPoly:
        return (-self) + other

    def __mul__(self, other: MultiPoly | Scalar) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly.zero(self.nvars)
            return MultiPoly._from_terms(self.nvars, {e: c * other for e, c in self._terms})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same_shape(other)
        acc: dict[Exponents, Fraction] = {}
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                s = acc.get(e, Fraction(0)) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return MultiPoly._from_terms(self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> MultiPoly:
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.nvars, 1)
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus ----------------------------------------------------------

    def differentiate(self, alpha: MultiIndex | Sequence[int]) -> MultiPoly:
        """Iterated partial derivative ∂^α (exact; zero if |α| exceeds degree)."""
        exps = _as_exponents(alpha, self.nvars, "multi-index")
        out: dict[Exponents, Fraction] = {}
        for e, c in self._terms:
            if any(ei < ai for ei, ai in zip(e, exps)):
                continue
            factor = 1
            for ei, ai in zip(e, exps):
                for k in range(ai):
                    factor *= ei - k
            out[tuple(ei - ai for ei, ai in zip(e, exps))] = c * factor
        return MultiPoly._from_terms(self.nvars, out)

    def apply_operator(self, target: MultiPoly) -> MultiPoly:
        """Apply self as a constant-coefficient differential operator to target."""
        self._require_same_shape(target)
        acc: dict[Exponents, Fraction] = {}
        for e, c in self._terms:
            for de, dc in target.differentiate(e)._terms:
                acc[de] = acc.get(de, 0) + c * dc
        return MultiPoly._from_terms(self.nvars, {e: c for e, c in acc.items() if c})

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        xs = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self._terms:
            v = c
            for x, k in zip(xs, e):
                if k:
                    v *= x**k
            total += v
        return total

    # -- variable manipulation ---------------------------------------------

    def permute(self, perm: Sequence[int]) -> MultiPoly:
        """Relabel variables: variable i becomes variable perm[i]."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError(f"not a permutation of 0..{self.nvars - 1}: {perm}")
        out: dict[Exponents, Fraction] = {}
        for e, c in self._terms:
            ne = [0] * self.nvars
            for i, k in enumerate(e):
                ne[perm[i]] = k
            out[tuple(ne)] = c
        return MultiPoly._from_terms(self.nvars, out)

    # -- serialization -----------------------------------------------------

    def to_records(self) -> list[dict[str, object]]:
        """Canonical list of {"coeff": "p/q", "exps": [...]} records."""
        return [{"coeff": format_rational(c), "exps": list(e)} for e, c in self._terms]

    @classmethod
    def from_records(cls, nvars: int, records: Iterable[Mapping[str, object]]) -> MultiPoly:
        """Inverse of ``to_records``; any malformed record raises ValueError.

        Each record is a mapping with exactly the keys "coeff" (a rational
        as text, an int or a Fraction) and "exps" (``nvars`` non-negative
        ints).
        """
        terms = []
        for rec in records:
            if not isinstance(rec, Mapping) or set(rec) != {"coeff", "exps"}:
                raise ValueError(f"a record needs exactly the keys 'coeff' and 'exps', got {_shown(rec)}")
            coeff, exps = rec["coeff"], rec["exps"]
            if isinstance(coeff, str):
                value = parse_rational(coeff)
            elif isinstance(coeff, (int, Fraction)) and not isinstance(coeff, bool):
                value = Fraction(coeff)
            else:
                raise ValueError(f"'coeff' must be a rational as text or an integer, got {_shown(coeff)}")
            if (
                not isinstance(exps, (list, tuple))
                or len(exps) != nvars
                or any(type(k) is not int or k < 0 for k in exps)
            ):
                raise ValueError(f"'exps' must be a list of {nvars} non-negative integers, got {_shown(exps)}")
            terms.append((tuple(exps), value))
        return cls(nvars, terms)

    def format(self, names: Sequence[str] | None = None) -> str:
        """Human-readable form like "1/2*x1^2 - x2*x3"; variable i is labelled
        names[i], by default x1, …, xn."""
        if not self._terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(1, self.nvars + 1)]
        parts: list[str] = []
        for e, c in self._terms:
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append(f"{names[i]}^{k}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {body}")
        first = parts[0]
        head = first[2:] if first.startswith("+ ") else "-" + first[2:]
        return " ".join([head] + parts[1:])

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.format()!r})"


def _shown(value: object) -> str:
    """A record value for a message: as JSON, the form records are read from,
    or as its repr if it has none."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def monomial_exponents(nvars: int, degree: int) -> list[Exponents]:
    """All exponent tuples of the given total degree, lex-descending."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


# -- exact linear algebra ----------------------------------------------------


def _scaled(values: Sequence[Scalar], den: int | None = None) -> tuple[list[int], int]:
    """(den·values, den) in integers; den defaults to the lcm of the denominators."""
    if den is None:
        den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (the row itself if that is 0 or 1)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_rows(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[int]]:
    """Copy of the matrix with each row scaled to integers (integer rows as they are)."""
    out = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("matrix rows differ in length")
        out.append(list(row) if all(type(x) is int for x in row) else _scaled(row)[0])
    return out


def _bareiss_echelon(mat: list[list[int]]) -> list[int]:
    """Fraction-free forward elimination in place; returns pivot columns."""
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivot_cols: list[int] = []
    prev = 1
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pivot_row = next((i for i in range(row, nrows) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        pivot = mat[row][col]
        for i in range(row + 1, nrows):
            head = mat[i][col]
            for j in range(col + 1, ncols):
                mat[i][j] = (mat[i][j] * pivot - head * mat[row][j]) // prev
            mat[i][col] = 0
        prev = pivot
        pivot_cols.append(col)
        row += 1
    return pivot_cols


def sparse_kernel(
    rows: Sequence[Sequence[Scalar]], ncols: int
) -> tuple[int, list[dict[int, Fraction]]]:
    """Exact rank and canonical right-kernel basis, each vector as {column: value}.

    The basis is the one ``rank_and_kernel`` returns, without its zeros: one
    vector per free column of the reduced row echelon form, with a 1 in that
    column, which is also its last nonzero entry (keys ascend).  Elimination
    and back-substitution run on integer rows; only the kernel entries are
    fractions.
    """
    mat = _integer_rows(rows, ncols)
    pivot_cols = _bareiss_echelon(mat)
    reduced = [_primitive(mat[k]) for k in range(len(pivot_cols))]
    for k in reversed(range(len(reduced))):
        col = pivot_cols[k]
        a = reduced[k][col]
        for i in range(k):
            b = reduced[i][col]
            if b:
                reduced[i] = _primitive([a * x - b * y for x, y in zip(reduced[i], reduced[k])])
    pivot_set = set(pivot_cols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        vec = {
            col: Fraction(-reduced[k][fc], reduced[k][col])
            for k, col in enumerate(pivot_cols)
            if reduced[k][fc]
        }
        vec[fc] = Fraction(1)
        basis.append(vec)
    return len(pivot_cols), basis


def rank_and_kernel(
    rows: Sequence[Sequence[Scalar]], ncols: int | None = None
) -> tuple[int, tuple[tuple[Fraction, ...], ...]]:
    """Exact rank and canonical right-kernel basis of a rational matrix.

    The kernel basis comes from the reduced row echelon form: one vector per
    free column, with a 1 in that column, so the output is deterministic.
    An empty matrix needs ``ncols`` to fix the ambient dimension.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols is required for a matrix with no rows")
        ncols = len(rows[0])
    rank, sparse = sparse_kernel(rows, ncols)
    zero = Fraction(0)
    return rank, tuple(tuple(vec.get(col, zero) for col in range(ncols)) for vec in sparse)


def matrix_rank(rows: Sequence[Sequence[Scalar]], ncols: int | None = None) -> int:
    """Exact rank over the rationals (empty matrix has rank 0)."""
    if not rows:
        return 0
    mat = _integer_rows(rows, len(rows[0]) if ncols is None else ncols)
    return len(_bareiss_echelon(mat))
