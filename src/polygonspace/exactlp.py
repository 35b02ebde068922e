"""Exact rational linear programming for small dense problems.

Two-phase primal simplex over arbitrary-precision integers on the condensed
(Tucker) tableau: a row holds its nonbasic entries, then its basic
coefficient, then its right side.  A basic column is zero off its own row
and, once priced out, in the cost row, so a row loses no entry of its
content.  Input rows are scaled to integers, not divided by their content;
each pivot divides by its content every row it changes, the pivot row and
the cost row among them, and dropping the artificial columns after phase
one renormalises nothing.  So no rational arithmetic happens between the
scaled input rows and the final vertex.  The entering rule is Dantzig's
(most negative reduced cost) until a run of degenerate pivots suggests
cycling, then, for good, Bland's rule, which guarantees termination.  Both
rules and the ratio test break ties by original column index, so the
pivots are the full tableau's.  Intended for the tiny systems that arise
when locating chamber points; no sparsity, no large-scale ambitions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from polygonspace.ratpoly import _primitive, _scaled

Row = tuple[Sequence[Fraction | int], Fraction | int]

_STALL_LIMIT = 40


def maximize(
    objective: Sequence[Fraction | int],
    eq_rows: Sequence[Row],
    ge_rows: Sequence[Row],
) -> Optional[tuple[Fraction, tuple[Fraction, ...], bool]]:
    """Maximize ``objective . x`` subject to ``x >= 0``, equalities and ``>=`` rows.

    ``eq_rows`` and ``ge_rows`` are ``(coefficients, rhs)`` pairs.  Returns
    ``(value, x, unique)`` at an optimal vertex x, or ``None`` when the
    constraints are infeasible; ``unique`` (every nonbasic reduced cost > 0)
    proves x the only optimum.  Raises ``ValueError`` if the objective is
    unbounded above.
    """
    nvars, neq, nge = len(objective), len(eq_rows), len(ge_rows)
    width = nvars + nge  # structural + slack columns; artificials are numbered from width
    if any(len(coeffs) != nvars for coeffs, _ in (*eq_rows, *ge_rows)):
        raise ValueError("constraint width does not match the objective")
    # Each row is scaled to integers by its den, its slack column (-den on a
    # >= row) with it.  A >= row with right side <= 0 starts on its slack
    # column, the row negated so that the coefficient is den > 0.  Any other
    # row starts on an artificial column (coefficient 1), negated if its right
    # side is negative, and its slack column, if any, is nonbasic.  cols[s] is
    # the original column of slot s.
    scaled = [_scaled([*coeffs, rhs]) for coeffs, rhs in (*eq_rows, *ge_rows)]
    basis: list[int] = []
    artificial: list[int] = []
    cols = list(range(nvars))
    for r, (row, _) in enumerate(scaled):
        if r >= neq and row[-1] <= 0:
            basis.append(nvars + r - neq)
            continue
        basis.append(width + len(artificial))
        artificial.append(r)
        if r >= neq:
            cols.append(nvars + r - neq)
    tab: list[list[int]] = []
    for r, (row, den) in enumerate(scaled):
        sign = -1 if basis[r] < width or row[-1] < 0 else 1
        tab.append([sign * v for v in row[:-1]] + [-den * (j == nvars + r - neq) for j in cols[nvars:]]
                   + [den if basis[r] < width else 1, sign * row[-1]])

    if artificial:
        # Phase one minimizes the sum of the artificials; priced out against
        # their rows (basic coefficient 1) the reduced costs are integers.
        cost = [-sum(entries) for entries in zip(*(tab[r] for r in artificial))]
        cost[-2] = 0
        tab.append(cost)
        _pivot_to_optimum(tab, basis, cols)
        tab.pop()
        if any(row[-1] != 0 for r, row in enumerate(tab) if basis[r] >= width):
            return None
        # Drive leftover artificials out of the basis on the first nonzero
        # original column; an all-zero row is redundant and dropped.
        keep: list[int] = []
        for r in range(len(tab)):
            if basis[r] >= width:
                slot = min((s for s, j in enumerate(cols) if j < width and tab[r][s] != 0),
                           key=cols.__getitem__, default=None)
                if slot is None:
                    continue
                _pivot(tab, basis, cols, r, slot)
            keep.append(r)
        slots = [s for s, j in enumerate(cols) if j < width]
        tab = [[tab[r][s] for s in slots] + tab[r][-2:] for r in keep]
        cols = [cols[s] for s in slots]
        basis = [basis[r] for r in keep]

    # basic entries d > 0: d·cost − factor·row is a positive multiple of
    # cost − factor·row/d; priced at full width, as the basic columns of the
    # later rows count towards the content until they are priced out
    cost = _scaled([-c for c in objective])[0] + [0] * (nge + 1)
    for r, row in enumerate(tab):
        factor, d = cost[basis[r]], row[-2]
        if factor:
            dense = [0] * width + row[-1:]
            for j, v in zip((*cols, basis[r]), row):
                dense[j] = v
            cost = _primitive([c * d - factor * v for c, v in zip(cost, dense)])
    tab.append([cost[j] for j in cols] + [0, cost[-1]])
    _pivot_to_optimum(tab, basis, cols)

    point = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            point[b] = Fraction(tab[r][-1], tab[r][-2])
    value = sum((Fraction(c) * x for c, x in zip(objective, point)), Fraction(0))
    return value, tuple(point), all(c > 0 for c in tab[-1][:len(cols)])


def _pivot_to_optimum(tab: list[list[int]], basis: list[int], cols: list[int]) -> None:
    """Pivot until no reduced cost in the last row is negative (minimization form).

    Every row keeps a positive basic coefficient, so the ratio test needs
    only rows with a positive entry in the entering column.
    """
    nslots = len(cols)
    bland, stall = False, 0
    while True:
        cost = tab[-1][:nslots]
        if bland:
            ties = [s for s, c in enumerate(cost) if c < 0]
        else:
            best = min(cost, default=0)  # Dantzig: the most negative
            ties = [s for s, c in enumerate(cost) if c == best < 0]
        if not ties:
            return
        enter = min(ties, key=cols.__getitem__)
        leave = None
        best_num = best_den = 0  # running minimum ratio rhs/entry
        for r in range(len(basis)):
            row = tab[r]
            entry = row[enter]
            if entry <= 0:
                continue
            num, den = row[-1], entry
            if leave is None or num * best_den < best_num * den or (
                    num * best_den == best_num * den and basis[r] < basis[leave]):
                best_num, best_den = num, den
                leave = r
        if leave is None:
            raise ValueError("objective is unbounded")
        if best_num == 0:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        _pivot(tab, basis, cols, leave, enter)


def _pivot(tab: list[list[int]], basis: list[int], cols: list[int], r: int, s: int) -> None:
    """Exchange the basic column of row r with the nonbasic column of slot s.

    Every other row of tab (the cost row too, when there is one) is
    eliminated in that column; the leaving column takes over slot s.
    """
    pivot_row = tab[r]
    piv = pivot_row[s]
    if piv < 0:
        pivot_row, piv = [-v for v in pivot_row], -piv
    d = pivot_row[-2]
    # other·piv − elim·f puts −d·f, the leaving column, in slot s and keeps
    # piv times the basic coefficient
    elim = pivot_row[:]
    elim[s], elim[-2] = piv + d, 0
    for i, other in enumerate(tab):
        f = other[s]
        if f and i != r:
            tab[i] = _primitive([a * piv - b * f for a, b in zip(other, elim)])
    pivot_row[s], pivot_row[-2] = d, piv
    tab[r] = _primitive(pivot_row)
    basis[r], cols[s] = cols[s], basis[r]
