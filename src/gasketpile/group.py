"""Exact linear algebra for sandpile groups on gasket graphs.

The sandpile group of a graph is Z^V modulo the column lattice of the
reduced Laplacian Delta; its order equals det(Delta).  One object holds it:
`LatticeData`, built once per graph by the cached `lattice_data`, which
eliminates Delta over the rationals one gasket level at a time, finest
first (nested dissection).  Every cell of a level has the same exact 3 x 3
midpoint block, inverted once, so a level is one block and the two index
arrays of `gasket.cell_index`.  The blocks come from the unit triangle by
one corner-update recursion and the diagonal from the degrees: the factor
reads nothing else of the graph, and every solve is checked against it.
The same pass stores the solve plan and the order's prime factorization,
read off the block determinants (`_prime_powers`); the order itself is
multiplied out on first use only.
One substitution sweep over the plan serves both solves of Delta y = x.
On object integers it is the exact O(n) `LatticeData.solve`, which gives
element orders, the reduction modulo the lattice and the toppling head
start; in float64 it is `LatticeData.approximate`, by which `in_lattice`
certifies a member without the exact solve, rounded and checked in
integers.  Every check and the reduction take Delta @ v from
`gasket.laplacian_product`.

Two Smith engines give the rest.  `quotient_invariants` gives every set of
invariant factors in production: the group's own (`LatticeData.invariants`,
`sandpile_group_invariants`, `group snf`) as the quotient by nothing, and
the four quotients of `check_group_theorem`.  It reads the order's primes
from `LatticeData.powers` and runs a sparse local Smith form over Z/p^K
per prime (`localsmith`), in the factor's elimination order, pivoting
inside the cells of `gasket.cell_index`, finest first.  Cells that are
translates of one another are eliminated once per stage and the result is
moved onto the others through a replay plan built once per quotient, so
all primes of the group take about 4-5 ms at level 5, 0.026-0.038 s at
level 8 and 0.08-0.11 s at level 10 on a 2-core VM.
`smith_mod` is a Smith reduction modulo the order; with transforms it
gives `LatticeData.basis`, the adapted basis behind the class labels, the
characters and the walk spectrum.  Without transforms it first eliminates
the +-1 pivots over Z on sparse rows read off each row's nonzeros (Dumas,
Saunders & Villard 2001) and hands the block left, a third of the rows on
the Laplacians, to its dense bounded-entry core.  The core takes the
least symmetric residue as pivot, by one scan that stops at the first
unit, and without transforms each Euclid pass reduces the whole column
before its least remainder becomes the next pivot.  So the factors of the
reduced Laplacian take about 5 ms at level 4, 60-70 ms at level 5 and
1.4-2.3 s at level 6 on a 2-core VM.  The tests check the two against each
other and `smith_mod` against sympy's Smith normal form over ZZ.  The
recursive and matrix-tree spanning tree counts live here too.

Bareiss determinants (`determinant`) and the fraction-free adjugate
(`scaled_inverse`) are reference paths that the tests and the benchmark
check the engines against.  Both run one lazily scaled Bareiss kernel on
sparse rows (`_fraction_free`) in a minimum-degree order of the pattern
(`_minimum_degree_order`, George & Liu 1981), applied as a symmetric
permutation; the determinant takes about 5.5 ms at level 4 and 55-60 ms
at level 5 on a 2-core VM, half the time of the banded canonical order.
"""

from __future__ import annotations

import decimal
import heapq
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress

import numpy as np

from .gasket import (
    LOWER_LEFT,
    LOWER_RIGHT,
    TOP,
    GasketGraph,
    build_gasket,
    cell_index,
    corner_sink,
    laplacian_product,
    reduced_laplacian,
    subcopy_embedding,
)
from .localsmith import _local_smith, _nested_rows

Matrix = list[list[int]]


_STR_BITS = 2000  # 2**2000 has 603 digits, under the least digit limit of `str` (640)


def digits(value: int) -> str:
    """Decimal form of an integer of any size.  `str` is quadratic and
    refuses more than `sys.get_int_max_str_digits()` digits, so above
    `_STR_BITS` bits the integer is split into binary halves and recombined
    in `decimal`, subquadratic and without a digit limit: the method of
    CPython 3.12's `_pylong.int_to_decimal_string` (gh-90716).  The level-10
    order (134,007 bits) takes 12 ms against 35 ms by `str`, 2**20 bits
    0.17 s against 1.6 s."""
    if abs(value).bit_length() <= _STR_BITS:
        return str(value)
    powers = {}  # Decimal 2**w by w: the halves' widths repeat

    def convert(n, w):  # 0 <= n < 2**w
        if w <= _STR_BITS:
            return decimal.Decimal(n)
        half = w >> 1
        if half not in powers:
            powers[half] = decimal.Decimal(2) ** half
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, w - half) * powers[half]

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    with decimal.localcontext(exact):  # any rounding raises
        text = str(convert(abs(value), abs(value).bit_length()))
    return "-" + text if value < 0 else text


def mat_identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("fraction-free elimination produced a remainder")
    return q


def _minimum_degree_order(rows: list[dict[int, int]]) -> list[int]:
    """A minimum-degree elimination order (George & Liu 1981) of columns
    0..n-1 of n sparse rows: the symmetrized pattern of their first n
    columns is the graph, and each step eliminates the vertex of least
    degree, ties to the lowest index, and joins its neighbours into a
    clique, the fill its elimination makes."""
    n = len(rows)
    graph = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            if j < n and j != i:
                graph[i].add(j)
                graph[j].add(i)
    heap = [(len(near), v) for v, near in enumerate(graph)]
    heapq.heapify(heap)
    order, done = [], [False] * n
    while heap:
        degree, v = heapq.heappop(heap)
        if done[v] or degree != len(graph[v]):
            continue  # eliminated, or a degree since changed
        done[v] = True
        order.append(v)
        near = graph[v]
        for u in near:
            graph[u] |= near
            graph[u] -= {u, v}
            heapq.heappush(heap, (len(graph[u]), u))
    return order


def _fraction_free(rows: list[dict[int, int]]) -> tuple[list[int], list[dict[int, int]], int, list[int]] | None:
    """Bareiss elimination (Bareiss 1968) of columns 0..n-1 of n sparse rows
    {column: value}, which it consumes; further columns are carried along.
    The columns are eliminated in `_minimum_degree_order`, applied as a
    symmetric permutation: position k holds row order[k], with column
    order[k] renamed k, so the determinant is unchanged.  Returns (pivots,
    upper, sign, order) in those positions: pivot k, the rest of row k right
    of it, and the parity of the row swaps (a zero pivot is swapped with the
    lowest-position row below that is nonzero in its column); None if no
    such row exists.

    Only the rows with a nonzero in the pivot column are updated.  A step
    with a zero multiplier scales a row by p_k / p_(k-1), so a row last
    updated at step s - 1 holds its level-k entries times p_(s-1) / p_(k-1).
    Updating it at step k is therefore (p_k a_ij - a_ik a_kj) / p_(s-1) on
    its stale entries, and a stale pivot row is caught up by p_(k-1) /
    p_(s-1).  Every division is checked exact.  The arithmetic grows with
    the fill, which the order keeps small."""
    n = len(rows)
    order = _minimum_degree_order(rows)
    position = [0] * n
    for k, v in enumerate(order):
        position[v] = k
    rows = [{position[j] if j < n else j: v for j, v in rows[i].items()} for i in order]
    scale = [1] * n  # p_(s-1) of each row's last update, 1 before any
    pivots, upper = [], []
    sign = prev = 1
    for k in range(n):
        if not rows[k].get(k):
            swap = next((i for i in range(k + 1, n) if rows[i].get(k)), None)
            if swap is None:
                return None
            rows[k], rows[swap] = rows[swap], rows[k]
            scale[k], scale[swap] = scale[swap], scale[k]
            sign = -sign
        pivot_row = rows[k]
        if scale[k] != prev:
            pivot_row = {j: _exact_div(v * prev, scale[k]) for j, v in pivot_row.items()}
        piv = pivot_row.pop(k)
        terms = list(pivot_row.items())
        for i in range(k + 1, n):
            row = rows[i]
            factor = row.pop(k, 0)
            if not factor:
                continue
            new = {j: piv * v for j, v in row.items()}
            for j, v in terms:
                new[j] = new.get(j, 0) - factor * v
            den = scale[i]
            rows[i] = {j: _exact_div(v, den) for j, v in new.items() if v}
            scale[i] = piv
        pivots.append(piv)
        upper.append(pivot_row)
        prev = piv
    return pivots, upper, sign, order


def _sparse_rows(matrix: Matrix) -> list[dict[int, int]]:
    """Nonzero entries by column; `operator.index` refuses a float or Fraction."""
    return [{j: operator.index(row[j]) for j in compress(range(len(row)), row)} for row in matrix]


def determinant(matrix: Matrix) -> int:
    """Exact determinant of any square integer matrix: the sign of the row
    swaps times the last pivot of `_fraction_free`.  Its symmetric
    permutation leaves the determinant unchanged, and its minimum-degree
    order keeps the fill small: about 5.5 ms at level 4 and 55-60 ms at
    level 5 for the reduced Laplacians.  A reference path, independent of
    `lattice_data` and of the Smith code on purpose: the tests cross-check
    all three."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    result = _fraction_free(_sparse_rows(matrix))
    if result is None:
        return 0
    pivots, _, sign, _ = result
    return sign * pivots[-1] if pivots else 1


def _canonical_chain(orders: list[int]) -> list[int]:
    """Divisibility chain d1 | d2 | ... with the same direct sum of cyclic
    groups as the given positive orders.  Each fix replaces a bad pair by
    (gcd, lcm), as many copies of the pair at once as both values have; the
    smaller entry strictly shrinks, so this terminates.  The work grows with
    the number of distinct values, not of entries."""
    counts = Counter(int(v) for v in orders)
    if any(v <= 0 for v in counts):
        raise ValueError("cyclic orders must be positive")
    while True:
        values = sorted(counts)
        bad = next(((a, b) for i, a in enumerate(values) for b in values[i + 1 :] if b % a), None)
        if bad is None:
            return [v for v in values for _ in range(counts[v])]
        a, b = bad
        copies, g = min(counts[a], counts[b]), math.gcd(a, b)
        for value, change in ((a, -copies), (b, -copies), (g, copies), (a // g * b, copies)):
            counts[value] += change
            if not counts[value]:
                del counts[value]


@dataclass
class AdaptedBasis:
    """Invariant factors d1 | ... | dm of Z^m modulo a full-rank lattice,
    optionally with a unimodular U whose i-th column generates the Z/d_i
    summand: the lattice is U @ diag(d) @ Z^m and Uinv maps a vector to its
    cyclic coordinates."""

    diag: list[int]
    U: Matrix | None = None
    Uinv: Matrix | None = None


def _split_unit_pivots(matrix: Matrix, modulus: int) -> tuple[int, Matrix]:
    """Eliminate the +-1 pivots of `matrix` over Z and return their count
    with the block left, as residues in [0, R): the Smith form modulo R is
    that many factors 1 followed by the block's.  Entries are read as
    symmetric residues in (-R/2, R/2], so R - 1 counts as -1, and held in
    sparse dict rows with the set of rows of each column.  In passes over
    the rows, a row holding a +-1 pivots on the one whose column has the
    fewest entries: the column is cleared by row operations over Z, and the
    pivot row and column are dropped, since column operations clear the
    rest of the row without touching the others.  The passes repeat until
    no row holds a +-1.  Each pivot block has determinant +-1, so every
    entry is a minor of the symmetric residues."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    half = modulus // 2
    rows = []
    cols = [set() for _ in range(n)]
    for i, line in enumerate(matrix):
        row = {}
        for j in compress(range(n), line):
            if v := operator.index(line[j]) % modulus:
                row[j] = v - modulus if v > half else v
                cols[j].add(i)
        rows.append(row)
    live = list(range(m))
    dropped = set()
    while True:
        kept = []
        for p in live:
            prow = rows[p]
            c = None
            for j, v in prow.items():
                if (v == 1 or v == -1) and (c is None or len(cols[j]) < len(cols[c])):
                    c = j
            if c is None:
                kept.append(p)
                continue
            unit = prow.pop(c)
            for j in prow:
                cols[j].discard(p)
            cols[c].discard(p)
            for i in cols[c]:
                # row_i -= f * row_p, which clears row_i[c] since unit**2 == 1.
                row = rows[i]
                f = row.pop(c) * unit
                for j, v in prow.items():
                    w = row.get(j)
                    if w is None:
                        row[j] = -f * v
                        cols[j].add(i)
                    else:
                        w -= f * v
                        if w:
                            row[j] = w
                        else:
                            del row[j]
                            cols[j].discard(i)
            dropped.add(c)
        if len(kept) == len(live):
            break
        live = kept
    rest = [j for j in range(n) if j not in dropped]
    return m - len(live), [[rows[i].get(j, 0) % modulus for j in rest] for i in live]


def smith_mod(matrix: Matrix, modulus: int, transforms: bool = False) -> AdaptedBasis:
    """Invariant factors of Z^m / (column lattice of `matrix` + R * Z^m) for a
    positive modulus R.  When R * Z^m already lies inside the column lattice
    (R a multiple of the determinant, say), this is just coker(matrix).

    Without transforms, a pre-pass (`_split_unit_pivots`) first eliminates
    the +-1 pivots over Z on sparse rows, read off each row's nonzeros; its
    entries are minors of the input's symmetric residues, not residues.
    Each pivot gives a leading factor 1, and the block left goes to the
    dense core below as residues in [0, R).  On the level-L Laplacians it
    takes about 3^L pivots and leaves a block of about n_(L-1) rows, with
    entries of at most 33 bits at level 4 (the order has 190) and 64 at
    level 5 (558).

    The dense core runs, conceptually, on the augmented matrix [A | R*I];
    the phantom columns R*I are never stored.  They license keeping every
    entry as a residue in [0, R), and folding a pivot p into gcd(p, R) once
    its column is zero below it.  Plain Smith reduction grows million-bit
    entries on the 42-vertex graph; in the core entries stay below R.
    Coordinates beyond the column rank are killed by the phantom columns
    alone and give a factor of R (a residue of 0 stands for R).

    Pivot rule: the pivot is the entry with the smallest symmetric residue
    min(v, R - v), first in row-major order, and a pivot above R/2 has its
    row negated, which is a tracked row operation.  A Laplacian's -1
    entries, stored as R - 1, are then unit pivots, and Euclid rounds are
    needed only in the final dense block.  A unit (1 or R - 1) is the least
    residue, so the scan stops at the first unit.  A row operation
    subtracts the nearest multiple of the pivot row and touches only the
    columns where the pivot row is nonzero: columns left of the pivot are
    already zero in every row from the pivot down.

    Column clearing: row passes repeat until column t is zero below the
    pivot, each remainder at most half the pivot.  Without transforms a
    pass reduces every row below t, and the least nonzero symmetric
    remainder, first on ties, is swapped in as the next pivot.  With
    transforms the first row left with a remainder is swapped in at once
    and the pass restarts: that order fixes U and Uinv, the adapted basis
    that names the classes and orders the characters, and the tests pin
    it.  The factors are canonical, so the least-remainder rule cannot
    change them.  Rows above t are diagonal by then, so column t is zero
    outside row t, and subtracting a multiple of column t from column j
    changes row t alone.  Row t is therefore reduced modulo the pivot in
    place; only a nonzero remainder costs a column swap, after which it is
    the new, smaller pivot and the row passes run again.  With the pre-pass
    the factors of the level-4 Laplacian take about 5 ms, those of level 5
    60-70 ms and those of level 6 1.4-2.3 s on a 2-core VM.

    Column operations do not change cokernel coordinates, so with
    `transforms` only row operations are tracked.  They give the adapted
    basis U and its inverse exactly; their entries are unbounded integers.
    The entries and the modulus must be integers (`operator.index`), or
    TypeError is raised; a ragged matrix, a non-square one with transforms
    or a modulus below 1 raises ValueError.
    """
    big = operator.index(modulus)
    if big <= 0:
        raise ValueError("modulus must be positive")
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if any(len(row) != n for row in matrix):
        raise ValueError("ragged matrix")
    if transforms and m != n:
        raise ValueError("adapted basis needs a square matrix")
    half = big // 2
    if transforms:
        lead, s = 0, [[operator.index(v) % big for v in row] for row in matrix]
    else:
        lead, s = _split_unit_pivots(matrix, big)
    m = len(s)
    n = len(s[0]) if m else 0
    uinv = mat_identity(m) if transforms else None
    # U is kept transposed, so that its column operations are row operations.
    ut = mat_identity(m) if transforms else None

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        if transforms:
            uinv[i], uinv[j] = uinv[j], uinv[i]
            ut[i], ut[j] = ut[j], ut[i]

    def negate_row(i):
        s[i] = [big - v if v else 0 for v in s[i]]
        if transforms:
            uinv[i] = [-v for v in uinv[i]]
            ut[i] = [-v for v in ut[i]]

    def row_sub(i, t, q, cols):
        # row_i -= q * row_t on the columns where row t is nonzero.
        si, st = s[i], s[t]
        for c in cols:
            si[c] = (si[c] - q * st[c]) % big
        if transforms:
            # Uinv row i -= q * Uinv row t; U column t += q * U column i.
            ui = uinv[i]
            for c, v in enumerate(uinv[t]):
                if v:
                    ui[c] -= q * v
            ucol = ut[t]
            for c, v in enumerate(ut[i]):
                if v:
                    ucol[c] += q * v

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]

    def clear(t: int) -> None:
        # Clear column t below and row t right of the pivot.  Every new pivot
        # is a nonzero remainder of the last, hence smaller: this terminates.
        while True:
            while True:
                if s[t][t] > half:
                    negate_row(t)
                prow = s[t]
                piv = prow[t]
                cols = [c for c in range(t, n) if prow[c]]
                least = None
                for i in range(t + 1, m):
                    val = s[i][t]
                    if val:
                        if val > half:
                            val -= big
                        q = (2 * val + piv) // (2 * piv)
                        if q:
                            row_sub(i, t, q, cols)
                            val -= q * piv
                        if val:
                            if transforms:
                                # The first remainder is the next pivot: this
                                # order fixes U and Uinv, the adapted basis
                                # that names the classes and the characters.
                                least = i
                                break
                            val = abs(val)
                            if least is None or val < rmin:
                                least, rmin = i, val
                if least is None:
                    break
                swap_rows(least, t)
            row = s[t]
            piv = row[t] = math.gcd(row[t], big)
            best = None
            for j in range(t + 1, n):
                if row[j]:
                    r = row[j] = row[j] % piv
                    if r and (best is None or r < row[best]):
                        best = j
            if best is None:
                return
            swap_cols(t, best)

    for t in range(min(m, n)):
        best = None
        for i in range(t, m):
            row = s[i]
            for j in range(t, n):
                val = row[j]
                if val:
                    if val > half:
                        val = big - val
                    if best is None or val < best[0]:
                        best = (val, i, j)
                        if val == 1:
                            break
            else:
                continue
            break
        if best is None:
            break
        if best[1] != t:
            swap_rows(t, best[1])
        if best[2] != t:
            swap_cols(t, best[2])
        clear(t)

    if not transforms:
        raw = [math.gcd(s[i][i], big) if i < n else big for i in range(m)]
        return AdaptedBasis(diag=[1] * lead + _canonical_chain(raw))

    # Restore the divisibility chain with real (tracked) operations so that U
    # stays aligned with the factors.  Diagonal residues all divide R here,
    # hence so do their pairwise gcds and lcms; an lcm equal to R is stored
    # as the residue 0.
    for i in range(m):
        for j in range(i + 1, m):
            if s[i][i] == 0:
                if s[j][j] != 0:
                    swap_rows(i, j)
                    swap_cols(i, j)
                else:
                    continue
            if s[j][j] % s[i][i]:
                s[j][i] = s[j][j]  # column i += column j
                clear(i)
                s[j][j] = math.gcd(s[j][j], big) % big
    diag = [math.gcd(s[i][i], big) for i in range(m)]
    return AdaptedBasis(diag=diag, U=[list(col) for col in zip(*ut)], Uinv=uinv)


def scaled_inverse(matrix: Matrix) -> tuple[Matrix, int]:
    """Integer matrix B and D = |det| > 0 with matrix @ B == D * identity,
    for any square nonsingular integer matrix; ArithmeticError if singular.

    B is the adjugate up to the determinant's sign.  `_fraction_free`
    eliminates [A | I] on the columns of A, in its symmetric permutation,
    to an upper triangular U with right-hand sides R and last pivot
    p = +-det; fraction-free back substitution (Nakos, Turner & Williams
    1997) gives x_k = (|p| r_k - sum_{j > k} u_kj x_j) / u_kk, each division
    checked exact, and x_k is row order[k] of |p| * A^-1.  Entries stay
    bounded by the adjugate's.  This costs O(n) per nonzero of U: 5 ms at
    level 3 and 45 ms at level 4 for the reduced Laplacian.  A reference
    path for the sparse solves of `LatticeData`."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("scaled_inverse needs a square matrix")
    rows = [{**row, n + i: 1} for i, row in enumerate(_sparse_rows(matrix))]
    result = _fraction_free(rows)
    if result is None:
        raise ArithmeticError("matrix is singular")
    pivots, upper, _, order = result
    scale = abs(pivots[-1]) if n else 1
    x: Matrix = [[]] * n
    for i in reversed(range(n)):
        acc = [0] * n
        for j, v in upper[i].items():
            if j >= n:
                acc[j - n] += scale * v
            else:
                acc = [a - v * b for a, b in zip(acc, x[j])]
        x[i] = [_exact_div(a, pivots[i]) for a in acc]
    # Position k solved for row order[k] of the scaled inverse.
    inverse: Matrix = [[]] * n
    for k, v in enumerate(order):
        inverse[v] = x[k]
    return inverse, scale


def sandpile_group_invariants(graph: GasketGraph) -> list[int]:
    return list(lattice_data(graph).invariants)


def sandpile_group_order(graph: GasketGraph) -> int:
    return lattice_data(graph).order


# ---------------------------------------------------------------------------
# The lattice of the reduced Laplacian: its exact factorization, one cell
# block per level, and its Smith data.
# ---------------------------------------------------------------------------

# A small exact matrix over Q: integer numerators (an object array of Python
# ints) over one positive common denominator, in lowest terms.
Exact = tuple[np.ndarray, int]


def _lowest(num: np.ndarray, den: int) -> Exact:
    if den < 0:
        num, den = -num, -den
    g = math.gcd(den, *num.ravel())
    return (num // g, den // g) if g > 1 else (num, den)


def _times(a: Exact, b: Exact) -> Exact:
    return _lowest(a[0].dot(b[0]), a[1] * b[1])


def _transpose(a: Exact) -> Exact:
    return a[0].T, a[1]


def _with_diagonal(off: Exact, diagonal, scale: int) -> Exact:
    """`off` with its diagonal set to the integers `diagonal` over `scale`."""
    num, den = off
    common = math.lcm(den, scale)
    out = num * (common // den)
    for i, v in enumerate(diagonal):
        out[i, i] = v * (common // scale)
    return _lowest(out, common)


def _cross(u: list[int], v: list[int]) -> list[int]:
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _inverse(matrix: Exact) -> tuple[Exact, Fraction]:
    """Inverse and determinant of a matrix over Q of size at most 3, through
    the integer adjugate, whose columns are cross products of the rows (a
    smaller matrix is padded with the identity); ArithmeticError if it is
    singular."""
    num, den = matrix
    size = len(num)
    r0, r1, r2 = ([num[i, j] if i < size and j < size else int(i == j) for j in range(3)] for i in range(3))
    adj = [_cross(r1, r2), _cross(r2, r0), _cross(r0, r1)]
    det = sum(a * b for a, b in zip(r0, adj[0]))
    if not det:
        raise ArithmeticError("singular block")
    inverse = np.array(adj, dtype=object).T[:size, :size] * den
    return _lowest(inverse, det), Fraction(det, den**size)


def _coarse_rows(update: Exact) -> tuple[Exact, Exact]:
    """The off-diagonal entries of a cell's midpoint rows one level up, from
    the corner update B^T M^-1 B of the level below, which links the corners
    of each finer cell; the recursion starts from the unit triangle, whose
    update is all ones (its corners joined with conductance 1).  The finer
    cells of a cell are its lower-left one, with corners (X, P, Q), its
    lower-right one (P, Y, R) and its top one (Q, R, Z), for midpoints P, Q,
    R and corners X, Y, Z.  The rows are symmetric by construction."""
    num, den = update
    u01, u02, u12 = -num[0, 1], -num[0, 2], -num[1, 2]
    among = np.array([[0, u12, u02], [u12, 0, u01], [u02, u01, 0]], dtype=object)
    coupling = np.array([[u01, u01, 0], [u02, 0, u02], [0, u12, u12]], dtype=object)
    return (among, den), (coupling, den)


# A solve plan: per level, the cells' corner positions, M^-1 and M^-1 B;
# then the inverse of the top block.
Plan = tuple[tuple[tuple[np.ndarray, Exact, Exact], ...], Exact]


@dataclass(frozen=True, eq=False)
class LatticeData:
    """The sandpile group of one graph: Z^V modulo the column lattice of the
    reduced Laplacian Delta, held as the nested-dissection factor of Delta
    that `lattice_data` builds, with the Smith data computed on first use.

    The factor eliminates the cells one level at a time, finest first.
    `elimination` lists each level's midpoints cell by cell, then the big
    corners left at the end, then the padding slot n, which holds 0;
    `position` is its inverse.  Level k holds the 3**(n-1-k) cells of side
    2**(k+1), and once the finer levels are eliminated every cell's midpoint
    rows are the same exact 3 x 3 blocks: M among its midpoints and B to its
    corners, built from the unit triangle by `_coarse_rows`.  Per level the
    solve plan holds `corner_positions`, the C x 3 positions of the cells'
    corners (lower left, lower right, top; a sunk corner is the padding
    slot), `inverse` = M^-1 and `reach` = M^-1 B; M is symmetric, so
    forward substitution reads `reach` and back substitution its
    transpose.  `top_inverse` inverts the dense block of the big
    corners.  `powers` is the group order det(Delta) as {p: v_p(order)}: the
    product of each level's det(M) to the power of its cell count and the
    top block's determinant, factored by `_prime_powers`.  `order` is that
    product, multiplied out on first use only, so a solve never builds it.
    `solve` and `approximate` run the plan in one sweep (`_sweep`): the
    exact plan on object integers, and `float_plan`, the same plan in
    float64, for the guesses that `in_lattice` certifies.

    The Smith data must multiply out to the order, or ArithmeticError is
    raised.  `invariants`, the invariant factors above 1, is
    `quotient_invariants` by no generators: the local Smith forms, one per
    prime, with no `smith_mod` run.  `basis`, the adapted basis U, Uinv,
    comes from one `smith_mod` run with transforms and names its own
    summands: `cyclic` lists the positions and orders of its factors above
    1, the coordinates every class label uses."""

    graph: GasketGraph
    elimination: np.ndarray
    position: np.ndarray
    corner_positions: tuple[np.ndarray, ...]
    inverse: tuple[Exact, ...]
    reach: tuple[Exact, ...]
    top_inverse: Exact
    powers: dict[int, int]

    def solve(self, entries) -> tuple[list[int], int]:
        """Integer vector y and the least D >= 1 with Delta @ y == D * x,
        so that Delta^{-1} x = y / D exactly.  Entries must be integers
        (`operator.index`), or TypeError is raised.  `_sweep` runs the plan
        on object integers, and one gcd at the end brings y / D to lowest
        terms.  The result is checked against the sparse Laplacian in
        integers; a mismatch raises ArithmeticError."""
        graph = self.graph
        x = np.array([operator.index(v) for v in entries], dtype=object)
        if len(x) != graph.n_vertices:
            raise ValueError("vector length must match vertex count")
        plan = tuple(zip(self.corner_positions, self.inverse, self.reach)), self.top_inverse
        y, den = self._sweep(plan, x)
        g = math.gcd(den, *y)
        if g > 1:
            y //= g
            den //= g
        if not (laplacian_product(graph, y) == den * x).all():
            raise ArithmeticError("sparse solve fails Delta @ y == D * x")
        return y.tolist(), den

    @cached_property
    def float_plan(self) -> Plan:
        """The plan of `solve` in float64, every denominator divided out."""

        def approx(exact: Exact) -> Exact:
            return exact[0].astype(np.float64) / exact[1], 1

        levels = zip(self.corner_positions, self.inverse, self.reach)
        return tuple((c, approx(inv), approx(reach)) for c, inv, reach in levels), approx(self.top_inverse)

    def approximate(self, x: np.ndarray) -> np.ndarray:
        """Delta^{-1} x in float64, unchecked: `_sweep` through `float_plan`."""
        return self._sweep(self.float_plan, x.astype(np.float64))[0]

    def _sweep(self, plan: Plan, x: np.ndarray) -> tuple[np.ndarray, int]:
        """y and D with Delta @ y == D * x, D not in lowest terms.  Forward
        substitution folds each level's midpoints into their cell corners,
        the top block is solved densely, and back substitution recovers each
        level's midpoints from its corners: a few array steps per level,
        with one common denominator per level on object integers.  On a
        float plan every denominator is 1, so every rescaling is by 1."""
        levels, (top_inv, top_den) = plan
        n = len(x)
        # Forward: z[start:] shares the denominator `den`; each level's
        # midpoint values are kept with theirs.
        z = np.append(x, 0)[self.elimination]
        den, start, kept = 1, 0, []
        for corners, _, (reach, reach_den) in levels:
            count = len(corners)
            end = start + 3 * count
            xm = z[start:end].reshape(count, 3)
            kept.append((xm, den))
            if reach_den != 1:
                z[end:] *= reach_den
                den *= reach_den
            fold = xm.dot(reach)
            for j in range(3):
                z[corners[:, j]] -= fold[:, j]
            start = end
        # Top, then back: y[start:n] shares the denominator `den`.
        y = np.zeros_like(z)
        y[start:n] = top_inv.dot(z[start:n])
        den *= top_den
        for (corners, (inv, inv_den), (reach, reach_den)), (xm, xden) in zip(reversed(levels), reversed(kept)):
            end, start = start, start - 3 * len(corners)
            new = math.lcm(inv_den * xden, reach_den * den)
            ym = xm.dot(inv) * (new // (inv_den * xden)) - y[corners].dot(reach.T) * (new // (reach_den * den))
            if new != den:
                y[end:n] *= new // den
            y[start:end] = ym.ravel()
            den = new
        return y[self.position[:n]], den

    @cached_property
    def order(self) -> int:
        return math.prod(p**e for p, e in self.powers.items())

    def _checked(self, factors: list[int]) -> list[int]:
        if _product(factors) != self.order:
            raise ArithmeticError("invariant factors disagree with the determinant")
        return factors

    @cached_property
    def invariants(self) -> tuple[int, ...]:
        return tuple(self._checked(quotient_invariants(self.graph, [])))

    @cached_property
    def basis(self) -> AdaptedBasis:
        dec = smith_mod(reduced_laplacian(self.graph), self.order, transforms=True)
        self._checked(dec.diag)
        return dec

    @property
    def U(self) -> Matrix:
        return self.basis.U

    @property
    def Uinv(self) -> Matrix:
        return self.basis.Uinv

    @cached_property
    def cyclic(self) -> tuple[tuple[int, int], ...]:
        """(position, factor) for every factor of `basis` above 1: the cyclic
        summands Z/factor, with U's column `position` as generator."""
        return tuple((i, d) for i, d in enumerate(self.basis.diag) if d > 1)


@lru_cache(maxsize=None)
def lattice_data(graph: GasketGraph) -> LatticeData:
    """Exact block elimination of the reduced Laplacian, one level at a
    time, in one pass that also builds the solve plan and the determinant.

    The midpoints of a cell touch only each other and the cell's corners,
    so eliminating every finest cell's three midpoints at once is the
    Delta-Y step behind the tau recursion: the corners are left joined by
    conductance 3/5 of the old one, and the Schur complement is again a
    gasket one level down.  The blocks are computed, not typed in: each
    level takes its links from the corner update B^T M^-1 B of the level
    below, starting from the unit triangle (its corners joined with
    conductance 1), and its diagonal from the degrees minus every update
    so far; every cell of a level must have the same diagonal, or
    ArithmeticError is raised.  The top block is the last update on the
    live corners.  So the factor reads only the cell layout and the
    degrees; the edges are read by the exact check of every solve and the
    order check of the Smith data.  On the gasket, M is (3/5)**k [[4, -1,
    -1], [-1, 4, -1], [-1, -1, 4]] at level k on every boundary.  Each
    block is inverted once.  The determinant must be a positive integer
    with the primes of `_prime_powers`, or ArithmeticError is raised."""
    n, level = graph.n_vertices, graph.level
    mids, corners, big = cell_index(graph)
    top = [v for v in big if v != n]
    # The elimination order: each level's midpoints cell by cell, then the
    # top corners, then the padding slot n.
    elimination = np.concatenate([m.ravel() for m in mids] + [np.array([*top, n], dtype=np.intp)])
    if not np.array_equal(np.sort(elimination), np.arange(n + 1)):
        raise ArithmeticError("the cells and the top do not cover every vertex once")
    position = np.empty(n + 1, dtype=np.intp)
    position[elimination] = np.arange(n + 1)
    # Numerators over `scale` of the Schur complement's diagonal, in
    # elimination order; the entries from `start` on are still live.
    diag = np.array([*graph.degrees, 0], dtype=object)[elimination]
    scale, start = 1, 0
    corner_positions, inverse, reach, dets = [], [], [], []
    update = (np.ones((3, 3), dtype=object), 1)  # the unit triangle
    for k in range(level):
        count = len(mids[k])
        end = start + 3 * count
        cells = diag[start:end].reshape(count, 3)
        if (cells != cells[0]).any():
            raise ArithmeticError(f"the level-{k} cells differ on the diagonal")
        among, coupling = _coarse_rows(update)
        inv, det = _inverse(_with_diagonal(among, cells[0], scale))
        solved = _times(inv, coupling)
        update = _times(_transpose(coupling), solved)
        new = math.lcm(scale, update[1])
        if new != scale:
            diag[end:] *= new // scale
            scale = new
        corner_pos = position[corners[k]]
        for j in range(3):
            diag[corner_pos[:, j]] -= update[0][j, j] * (scale // update[1])
        corner_positions.append(corner_pos)
        inverse.append(inv)
        reach.append(solved)
        dets.append((det, count))
        start = end
    slots = [j for j, v in enumerate(big) if v != n]
    links = (-update[0][np.ix_(slots, slots)], update[1])
    top_inverse, det = _inverse(_with_diagonal(links, diag[start:n], scale))
    dets.append((det, 1))
    return LatticeData(
        graph=graph,
        elimination=elimination,
        position=position,
        corner_positions=tuple(corner_positions),
        inverse=tuple(inverse),
        reach=tuple(reach),
        top_inverse=top_inverse,
        powers=_prime_powers(level, dets),
    )


# Delta @ y stays below 8 * 2**40 in int64 for entries below the bound.
_CERTIFIED_BOUND = 2**40


def in_lattice(graph: GasketGraph, entries) -> bool:
    """Whether the integer vector x lies in the column lattice of the
    reduced Laplacian, i.e. represents the trivial group element; a
    non-integer entry raises TypeError, a wrong length ValueError.

    An integer y with Delta @ y == x proves membership (approximate, then
    verify: Dixon 1982).  y is `LatticeData.approximate` rounded, and the
    check runs in int64.  An entry of x or y of 2**40 or more, a rounding
    off by more than 0.25 or a failed check takes the exact solve.

    The entries are converted once: `np.asarray` when numpy reads them as a
    1-D int64 array, otherwise one `operator.index` per entry."""
    try:
        x = np.asarray(entries)
    except ValueError:  # ragged input, which `operator.index` refuses below
        x = None
    if x is None or x.dtype != np.int64 or x.ndim != 1:
        x = np.array(list(map(operator.index, entries)), dtype=object)
    if len(x) != graph.n_vertices:
        raise ValueError("vector length must match vertex count")
    data = lattice_data(graph)
    if -_CERTIFIED_BOUND < x.min() and x.max() < _CERTIFIED_BOUND:
        x = x.astype(np.int64, copy=False)
        approx = data.approximate(x)
        y = np.rint(approx)
        if (np.abs(approx - y) <= 0.25).all() and (np.abs(y) < _CERTIFIED_BOUND).all():
            if (laplacian_product(graph, y.astype(np.int64)) == x).all():
                return True
    return data.solve(x)[1] == 1


def lattice_reduce(graph: GasketGraph, entries: list[int]) -> list[int]:
    """x - Delta @ floor(Delta^{-1} x): the vector Delta @ f in the class of
    x with f = Delta^{-1} x - floor(Delta^{-1} x) in [0, 1)^V.  Entry v is
    deg(v) f_v minus the sum of f over the neighbours of v, an integer in
    [1 - #neighbors(v), deg(v) - 1].  A non-integer entry raises
    TypeError."""
    x = np.array([operator.index(v) for v in entries], dtype=object)
    y, den = lattice_data(graph).solve(x)
    return (x - laplacian_product(graph, np.array(y, dtype=object) // den)).tolist()


# ---------------------------------------------------------------------------
# The primes of the order, read off the factorization.
# ---------------------------------------------------------------------------


def _valuation(x: int, p: int) -> int:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def _prime_powers(level: int, dets: list[tuple[Fraction, int]]) -> dict[int, int]:
    """{p: v_p(order)} for the group order det(Delta), the product of
    det**count over `dets`: the sum of count * v_p(det), valuations of small
    rationals, so the order is never built.  The primes are 2, 3, 5 and
    those of N = 2 * 5**level + 3**(level + 1), by trial division of N:
    every gasket group order factors so (on the normal boundary it is
    2^a 3^b 5^c N^2 for level >= 1, on a corner-sink boundary it has no
    factor N).  A numerator or denominator with a factor left over (a sign
    included), or a negative exponent sum, raises ArithmeticError: the
    determinant must be a positive integer."""
    primes, rest, d = [2, 3, 5], 2 * 5**level + 3 ** (level + 1), 7
    while d * d <= rest:
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
        d += 2
    if rest > 5:
        primes.append(rest)
    powers = dict.fromkeys(primes, 0)
    for det, count in dets:
        for value, weight in ((det.numerator, count), (det.denominator, -count)):
            for p in primes:
                e = _valuation(value, p)
                value //= p**e
                powers[p] += weight * e
            if value != 1:
                raise ArithmeticError(f"the level-{level} group order has a factor outside 2, 3, 5 and N")
    if min(powers.values()) < 0:
        raise ArithmeticError("the determinant must be a positive integer")
    return {p: e for p, e in powers.items() if e}


# ---------------------------------------------------------------------------
# Quotients and the recursive decomposition of the group.
# ---------------------------------------------------------------------------


def delta_vector(graph: GasketGraph, index: int) -> list[int]:
    vec = [0] * graph.n_vertices
    vec[index] = 1
    return vec


def quotient_invariants(graph: GasketGraph, generators: list[list[int]]) -> list[int]:
    """Invariant factors (> 1) of the sandpile group modulo the subgroup
    generated by the given integer vectors' classes; a non-integer entry
    raises TypeError (`operator.index`).

    The cokernel of [Delta | g1 | ... | gk] is a quotient of the group, so
    its order divides the group order and its p-part is the Smith form of
    that matrix over Z/p^K once p^K is at least the p-part of the order.
    Each prime of `data.powers` runs `_local_smith` with a small K =
    level + 1 first.  If a row survives its K rounds (a factor p^K or more,
    as the 3^(n+1) of a corner-sink group), the prime is run again with K
    doubled, up to the exponent of p in the order, which is always exact.
    (Going there at once would make every residue of the level-8
    corner-sink p = 3 run a number of 7,800 bits.)  The p-parts, one per
    prime, are elementary divisors, so the invariant factors are their
    products largest with largest, second with second, and so on.
    """
    n = graph.n_vertices
    columns = [[operator.index(v) for v in g] for g in generators]
    for g in columns:
        if len(g) != n:
            raise ValueError("generator length must match vertex count")
    data = lattice_data(graph)
    matrix, stages = _nested_rows(graph, columns, data.position[:n].tolist())
    parts = []
    for p, top in data.powers.items():
        rounds = min(graph.level + 1, top)
        exponents, left = _local_smith(matrix, stages, p, rounds)
        while left and rounds < top:
            rounds = min(2 * rounds, top)
            exponents, left = _local_smith(matrix, stages, p, rounds)
        parts.append((p, sorted(exponents + [rounds] * left, reverse=True)))
    chain = [1] * max((len(part) for _, part in parts), default=0)
    for p, part in parts:
        for i, e in enumerate(part, 1):
            chain[-i] *= p**e
    return chain


def _product(factors) -> int:
    """The product of many factors with few distinct values, one power per
    value: a running product over tens of thousands of them is quadratic."""
    return math.prod(d**c for d, c in Counter(factors).items())


def direct_sum_invariants(factor_lists: list[list[int]]) -> list[int]:
    """Canonical invariant factors (> 1) of a direct sum of cyclic groups.

    Recombines every cyclic factor into a divisibility chain by gcd/lcm
    steps, without needing any integer factorization.
    """
    entries = [d for factors in factor_lists for d in factors]
    return [d for d in _canonical_chain(entries) if d > 1]


@dataclass
class GroupTheoremReport:
    """Outcome of the three-copy decomposition check at one level."""

    level: int
    passed: bool
    convention: str
    lhs_factors: list[int]
    rhs_factors: list[int]
    lhs_order: int
    rhs_order: int

    def to_json(self) -> dict:
        lhs = digits(self.lhs_order)
        return {
            "check": "group_theorem",
            "level": self.level,
            "pass": self.passed,
            "details": {
                "convention": self.convention,
                "lhs_factors": [str(d) for d in self.lhs_factors],
                "rhs_factors": [str(d) for d in self.rhs_factors],
                "lhs_order": lhs,
                "rhs_order": lhs if self.rhs_order == self.lhs_order else digits(self.rhs_order),
            },
        }


# Which sub-copy supplies the two neighbors of each junction in the quotient
# generators: junction on the left side pairs with the top copy, bottom with
# the lower-left copy, right with the lower-right copy.  No other assignment
# is tried: the reflection (a, b) -> (b, a), a gasket automorphism, maps this
# one onto the flipped one (left with lower-left, bottom with lower-right,
# right with top), so the two quotients are isomorphic.
_PRIMARY_ASSIGNMENT = (("left", TOP), ("bottom", LOWER_LEFT), ("right", LOWER_RIGHT))


def _junction_copy_vector(graph: GasketGraph, side: str, copy: str) -> list[int]:
    """Indicator vector of the two neighbors of a junction that lie in the
    named sub-copy."""
    nbrs = graph.table[:, graph.junction_index(side)]
    inside = nbrs[np.isin(nbrs, subcopy_embedding(graph.level, copy))].tolist()
    if len(inside) != 2:
        raise ArithmeticError(f"junction {side} should have 2 neighbors in copy {copy}")
    vec = [0] * graph.n_vertices
    for w in inside:
        vec[w] = 1
    return vec


def check_group_theorem(level: int) -> GroupTheoremReport:
    """Verify that the level-n group, modulo the six junction-related classes,
    is the direct sum of three corner-quotiented level-(n-1) groups.

    The left side quotients G_n by the classes of the three junction deltas
    and, per junction, the sum of its two neighbors inside one sub-copy.  The
    right side quotients G_{n-1} by two corner deltas, once per corner pair.
    """
    if level < 1:
        raise ValueError("decomposition needs level >= 1")
    parent = build_gasket(level)
    child = build_gasket(level - 1)
    x, y = child.corner_index(LOWER_LEFT), child.corner_index(LOWER_RIGHT)
    # The pairs (x, y), (y, z) and (z, x) give isomorphic quotients, since the
    # rotation (`gasket.rotation_ccw`, an automorphism of the normal boundary)
    # maps each corner pair onto the next, so one quotient is computed thrice.
    rhs_parts = [quotient_invariants(child, [delta_vector(child, x), delta_vector(child, y)])] * 3
    rhs = direct_sum_invariants(rhs_parts)
    generators = [_junction_copy_vector(parent, side, copy) for side, copy in _PRIMARY_ASSIGNMENT]
    generators += [
        delta_vector(parent, parent.junction_index(side)) for side in ("left", "right", "bottom")
    ]
    lhs = quotient_invariants(parent, generators)
    return GroupTheoremReport(
        level=level,
        passed=(lhs == rhs),
        convention="primary",
        lhs_factors=lhs,
        rhs_factors=rhs,
        lhs_order=_product(lhs),
        rhs_order=_product(d for part in rhs_parts for d in part),
    )


# ---------------------------------------------------------------------------
# Spanning tree counts of the bare gasket.
# ---------------------------------------------------------------------------


def tau_recursion(level: int) -> int:
    """Spanning tree count of the bare level-n gasket via the product
    recursion tau(n+1) = tau(n) * 18 * 540**((3**n - 1) // 2), tau(0) = 3."""
    if level < 0:
        raise ValueError("level must be >= 0")
    count = 3
    for k in range(level):
        count *= 18 * 540 ** ((3**k - 1) // 2)
    return count


def tau_matrix_tree(level: int) -> int:
    """Spanning tree count via the matrix-tree theorem: the bare gasket
    Laplacian with the lower-left corner's row and column deleted is the
    reduced Laplacian of the gasket with that corner as the sink, so the
    count is that graph's sandpile group order."""
    return sandpile_group_order(build_gasket(level, corner_sink(LOWER_LEFT)))

