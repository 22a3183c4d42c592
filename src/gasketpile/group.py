"""Exact linear algebra for sandpile groups on gasket graphs.

The sandpile group of a graph is Z^V modulo the column lattice of the
reduced Laplacian Delta; its order equals det(Delta).  Production code gets
every exact quantity from two engines.  `laplacian_factor` is a sparse
LDL^T of Delta over the rationals, eliminating vertices cell by cell,
finest level first (nested dissection); the product of its pivots is the
order, and its O(n) solves of Delta y = x decide lattice membership,
element orders and the reduction modulo the lattice.
`smith_mod` is a bounded-entry Smith reduction modulo the order that
`quotient_invariants` runs without transforms (the invariant factors are the
quotient by nothing) and `LatticeData.basis` with them, for the adapted
basis.  The recursive and matrix-tree spanning tree counts live here too.

Bareiss determinants (`determinant`) and the fraction-free adjugate
(`scaled_inverse`) are reference paths that the tests and the benchmark
check the engines against; the tests check `smith_mod` against sympy's
Smith normal form over ZZ.  Both run one banded, lazily scaled Bareiss
kernel on sparse rows (`_fraction_free`); in the banded canonical vertex
order the determinant takes about 12 ms at level 4 and 0.11-0.14 s at
level 5 on a 2-core VM.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .gasket import (
    CORNER_NAMES,
    LOWER_LEFT,
    LOWER_RIGHT,
    TOP,
    GasketGraph,
    build_gasket,
    corner_sink,
    reduced_laplacian,
    subcopy_embedding,
)

Matrix = list[list[int]]


def digits(value: int) -> str:
    """Decimal form of an integer of any size.  Python refuses int -> str
    conversions above 4300 digits by default (tau(8) has 4481, the level-8
    group order 4485); the limit is lifted for this conversion only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def mat_identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("fraction-free elimination produced a remainder")
    return q


def _fraction_free(rows: list[dict[int, int]]) -> tuple[list[int], list[dict[int, int]], int] | None:
    """Bareiss elimination (Bareiss 1968) of columns 0..n-1 of n sparse rows
    {column: value}, which it consumes; further columns are carried along.
    Returns (pivots, upper, sign): pivot k, the rest of row k right of it,
    and the parity of the row swaps (a zero pivot is swapped with the
    lowest-index row below that is nonzero in its column); None if no such
    row exists.

    Only the rows with a nonzero in the pivot column are updated.  A step
    with a zero multiplier scales a row by p_k / p_(k-1), so a row last
    updated at step s - 1 holds its level-k entries times p_(s-1) / p_(k-1).
    Updating it at step k is therefore (p_k a_ij - a_ik a_kj) / p_(s-1) on
    its stale entries, and a stale pivot row is caught up by p_(k-1) /
    p_(s-1).  Every division is checked exact.  A band matrix of bandwidth
    b costs O(n b^2) integer operations."""
    n = len(rows)
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
    return pivots, upper, sign


def _sparse_rows(matrix: Matrix) -> list[dict[int, int]]:
    return [{j: int(v) for j, v in enumerate(row) if v} for row in matrix]


def determinant(matrix: Matrix) -> int:
    """Exact determinant of any square integer matrix: the sign of the row
    swaps times the last pivot of `_fraction_free`, which costs O(n b^2)
    for bandwidth b (17 at level 4 and 33 at level 5 for the reduced
    Laplacians).  A reference path, independent of `laplacian_factor` and
    of the Smith code on purpose: the tests cross-check all three."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    result = _fraction_free(_sparse_rows(matrix))
    if result is None:
        return 0
    pivots, _, sign = result
    return sign * pivots[-1] if pivots else 1


def _canonical_chain(orders: list[int]) -> list[int]:
    """Divisibility chain d1 | d2 | ... with the same direct sum of cyclic
    groups as the given positive orders.  Each fix replaces a bad pair by
    (gcd, lcm); the smaller entry strictly shrinks, so this terminates."""
    d = sorted(int(v) for v in orders)
    if any(v <= 0 for v in d):
        raise ValueError("cyclic orders must be positive")
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = math.gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] // g * d[j]
                    changed = True
        d.sort()
    return d


@dataclass
class AdaptedBasis:
    """Invariant factors d1 | ... | dm of Z^m modulo a full-rank lattice,
    optionally with a unimodular U whose i-th column generates the Z/d_i
    summand: the lattice is U @ diag(d) @ Z^m and Uinv maps a vector to its
    cyclic coordinates."""

    diag: list[int]
    U: Matrix | None = None
    Uinv: Matrix | None = None


def smith_mod(matrix: Matrix, modulus: int, transforms: bool = False) -> AdaptedBasis:
    """Invariant factors of Z^m / (column lattice of `matrix` + R * Z^m) for a
    positive modulus R.  When R * Z^m already lies inside the column lattice
    (R a multiple of the determinant, say), this is just coker(matrix).

    The reduction runs, conceptually, on the augmented matrix [A | R*I]; the
    phantom columns R*I are never stored.  They license keeping every entry
    as a residue in [0, R), and folding a pivot p into gcd(p, R) once its
    column is zero below it.  Plain Smith reduction grows million-bit
    entries on the 42-vertex graph; here entries stay below R.  Coordinates
    beyond the column rank are killed by the phantom columns alone and give
    a factor of R (a residue of 0 stands for R).

    Pivot rule: the pivot is the entry with the smallest symmetric residue
    min(v, R - v), and a pivot above R/2 has its row negated, which is a
    tracked row operation.  A Laplacian's -1 entries, stored as R - 1, are
    then unit pivots, and Euclid rounds are needed only in the final dense
    block.  A row operation subtracts the nearest multiple of the pivot row
    and touches only the columns where the pivot row is nonzero: columns left
    of the pivot are already zero in every row from the pivot down.

    Column clearing: the row pass repeats until column t is zero below the
    pivot.  Rows above t are diagonal by then, so column t is zero outside
    row t, and subtracting a multiple of column t from column j changes row t
    alone.  Row t is therefore reduced modulo the pivot in place; only a
    nonzero remainder costs a column swap, after which it is the new,
    smaller pivot and the row pass runs again.

    Column operations do not change cokernel coordinates, so with
    `transforms` only row operations are tracked.  They give the adapted
    basis U and its inverse exactly (square input only); their entries are
    unbounded integers.
    """
    big = int(modulus)
    if big <= 0:
        raise ValueError("modulus must be positive")
    half = big // 2
    s = [[int(v) % big for v in row] for row in matrix]
    m = len(s)
    n = len(s[0]) if m else 0
    if any(len(row) != n for row in s):
        raise ValueError("ragged matrix")
    if transforms and m != n:
        raise ValueError("adapted basis needs a square matrix")
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
        # Clear column t below and row t right of the pivot.  Every swap
        # brings in a strictly smaller pivot, so this terminates.
        while True:
            swapped = True
            while swapped:
                swapped = False
                if s[t][t] > half:
                    negate_row(t)
                prow = s[t]
                piv = prow[t]
                cols = [c for c in range(t, n) if prow[c]]
                for i in range(t + 1, m):
                    val = s[i][t]
                    if val:
                        if val > half:
                            val -= big
                        q = (2 * val + piv) // (2 * piv)
                        if q:
                            row_sub(i, t, q, cols)
                        if s[i][t]:
                            swap_rows(i, t)
                            swapped = True
                            break
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
            if best is not None and best[0] == 1:
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
        return AdaptedBasis(diag=_canonical_chain(raw))

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
    eliminates [A | I] on the columns of A to an upper triangular U with
    right-hand sides R and last pivot p = +-det; fraction-free back
    substitution (Nakos, Turner & Williams 1997) gives the rows of
    |p| * A^-1, x_i = (|p| r_i - sum_{j > i} u_ij x_j) / u_ii, each division
    checked exact.  Entries stay bounded by the adjugate's.  For bandwidth b
    this costs O(n^2 b): 7 ms at level 3 and 0.1 s at level 4 for the
    reduced Laplacian.  A reference path for the sparse solves of
    `LaplacianFactor`."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("scaled_inverse needs a square matrix")
    rows = [{**row, n + i: 1} for i, row in enumerate(_sparse_rows(matrix))]
    result = _fraction_free(rows)
    if result is None:
        raise ArithmeticError("matrix is singular")
    pivots, upper, _ = result
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
    return x, scale


def sandpile_group_invariants(graph: GasketGraph) -> list[int]:
    return list(lattice_data(graph).invariants)


def sandpile_group_order(graph: GasketGraph) -> int:
    return lattice_data(graph).order


# ---------------------------------------------------------------------------
# Sparse exact factorization of the reduced Laplacian.
# ---------------------------------------------------------------------------


def _valuation(coord: tuple[int, int], infinite: int) -> int:
    """min(v2(a), v2(b)) for a vertex (a, b), with v2(0) read as `infinite`."""
    return min((x & -x).bit_length() - 1 if x else infinite for x in coord)


# The factorization holds rationals as (numerator, denominator) pairs in
# lowest terms with a positive denominator; in its inner loops this is about
# four times faster than `Fraction`.
Rational = tuple[int, int]


def _minus_product(r: Rational, f: Rational, b: Rational) -> Rational:
    """r - f * b."""
    num = r[0] * f[1] * b[1] - f[0] * b[0] * r[1]
    den = r[1] * f[1] * b[1]
    g = math.gcd(num, den)
    return num // g, den // g


def _quotient(a: Rational, p: Rational) -> Rational:
    """a / p for p > 0."""
    num, den = a[0] * p[1], a[1] * p[0]
    g = math.gcd(num, den)
    return num // g, den // g


@dataclass(frozen=True, eq=False)
class LaplacianFactor:
    """Delta = P L D L^T P^T for the reduced Laplacian of one gasket graph.

    `sequence` is the elimination order (P), `pivots` the diagonal of D in
    that order, and `below[k]` the nonzero entries (vertex, value) of the
    unit lower-triangular L under step k's pivot; each names a vertex
    eliminated later.  `determinant` is the product of the pivots, det(Delta).
    """

    graph: GasketGraph
    sequence: tuple[int, ...]
    pivots: tuple[Rational, ...]
    below: tuple[tuple[tuple[int, Rational], ...], ...]
    determinant: int

    def solve(self, entries: list[int]) -> tuple[list[int], int]:
        """Integer vector y and the least D >= 1 with Delta @ y == D * x,
        so that Delta^{-1} x = y / D exactly.

        Forward substitution through L, division by the pivots and back
        substitution: O(n) rational operations, since no column of L has
        more than four entries.  The result is checked against the sparse
        Laplacian in integers; a mismatch raises ArithmeticError."""
        graph = self.graph
        x = [int(v) for v in entries]
        if len(x) != graph.n_vertices:
            raise ValueError("vector length must match vertex count")
        z = [(v, 1) for v in x]
        for v, col in zip(self.sequence, self.below):
            zv = z[v]
            if zv[0]:
                for w, entry in col:
                    z[w] = _minus_product(z[w], entry, zv)
        for v, pivot in zip(self.sequence, self.pivots):
            z[v] = _quotient(z[v], pivot)
        for v, col in zip(reversed(self.sequence), reversed(self.below)):
            for w, entry in col:
                z[v] = _minus_product(z[v], entry, z[w])
        den = math.lcm(*(d for _, d in z))
        y = [num * (den // d) for num, d in z]
        degrees = graph.degrees
        for v, nbrs in enumerate(graph.neighbors):
            if degrees[v] * y[v] - sum(y[w] for w in nbrs) != den * x[v]:
                raise ArithmeticError("sparse solve fails Delta @ y == D * x")
        return y, den


@lru_cache(maxsize=None)
def laplacian_factor(graph: GasketGraph) -> LaplacianFactor:
    """Sparse symmetric elimination of the reduced Laplacian over Q.

    Vertices are eliminated in order of min(v2(a), v2(b)) of their
    coordinates (ties in canonical order): first the three midpoints of
    every level-1 cell, then those of every level-2 cell, and so on, with
    the big triangle's corners last.  This is nested dissection with the
    gasket's 3-vertex separators.  A midpoint touches only the other two
    midpoints of its cell and two cell corners, so no pivot row has more
    than four off-diagonal entries.  Eliminating one cell's midpoints is the
    Delta-Y step behind the tau recursion: the corners are left joined by
    conductance 3/5 of the old one, so the Schur complement is again a
    gasket one level down.

    Delta is symmetric positive definite, so every pivot is positive and no
    pivoting is needed.  The product of the pivots must be a positive
    integer, or ArithmeticError is raised."""
    n = graph.n_vertices
    infinite = graph.level + 1
    sequence = sorted(range(n), key=lambda v: _valuation(graph.coords[v], infinite))
    rows = [dict.fromkeys(nbrs, (-1, 1)) for nbrs in graph.neighbors]
    diag = [(d, 1) for d in graph.degrees]
    pivots, below = [], []
    for v in sequence:
        pivot = diag[v]
        items = list(rows[v].items())
        col = []
        for i, (w, a) in enumerate(items):
            row_w = rows[w]
            del row_w[v]
            f = _quotient(a, pivot)
            col.append((w, f))
            diag[w] = _minus_product(diag[w], f, a)
            for u, b in items[i + 1 :]:
                row_w[u] = rows[u][w] = _minus_product(row_w.get(u, (0, 1)), f, b)
        pivots.append(pivot)
        below.append(tuple(col))
    det, rem = divmod(math.prod(p for p, _ in pivots), math.prod(q for _, q in pivots))
    if rem or det <= 0:
        raise ArithmeticError("the pivot product must be a positive integer")
    return LaplacianFactor(
        graph=graph,
        sequence=tuple(sequence),
        pivots=tuple(pivots),
        below=tuple(below),
        determinant=det,
    )


# ---------------------------------------------------------------------------
# Cached lattice data per graph: the order from the factorization, the
# invariant factors and the Smith basis of the reduced Laplacian, reused by
# the character enumeration and the walk spectrum.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LatticeData:
    """The sandpile group of one graph: Z^V modulo the column lattice of the
    reduced Laplacian Delta, whose index `order` is det(Delta), the product
    of the pivots of `laplacian_factor`.

    Everything else is computed on first use, once, and must multiply out to
    the order, or ArithmeticError is raised.  `invariants`, the invariant
    factors above 1, is `quotient_invariants` by no generators.  `basis`, the
    adapted basis U, Uinv, comes from one `smith_mod` run with transforms and
    names its own summands: `cyclic` lists the positions and orders of its
    factors above 1, the coordinates every class label uses."""

    graph: GasketGraph
    order: int

    def _checked(self, factors: list[int]) -> list[int]:
        if math.prod(factors) != self.order:
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

    def coordinates(self, entries: list[int]) -> tuple[int, ...]:
        """Canonical label of the class of `entries`: its adapted-basis
        coordinates on the cyclic summands, reduced modulo their orders."""
        x = list(entries)
        return tuple(sum(u * v for u, v in zip(self.Uinv[i], x)) % d for i, d in self.cyclic)


@lru_cache(maxsize=None)
def lattice_data(graph: GasketGraph) -> LatticeData:
    return LatticeData(graph=graph, order=laplacian_factor(graph).determinant)


def in_lattice(graph: GasketGraph, entries: list[int]) -> bool:
    """Whether the integer vector lies in the column lattice of the reduced
    Laplacian, i.e. represents the trivial group element.  True exactly when
    Delta^{-1} @ x is integral."""
    return laplacian_factor(graph).solve(entries)[1] == 1


def lattice_reduce(graph: GasketGraph, entries: list[int]) -> list[int]:
    """x - Delta @ floor(Delta^{-1} x): the vector Delta @ f in the class of
    x with f = Delta^{-1} x - floor(Delta^{-1} x) in [0, 1)^V.  Entry v is
    deg(v) f_v minus the sum of f over the neighbours of v, an integer in
    [1 - #neighbors(v), deg(v) - 1]."""
    x = [int(v) for v in entries]
    y, den = laplacian_factor(graph).solve(x)
    q = [v // den for v in y]
    degrees = graph.degrees
    return [
        x[v] - degrees[v] * q[v] + sum(q[w] for w in nbrs)
        for v, nbrs in enumerate(graph.neighbors)
    ]


# ---------------------------------------------------------------------------
# Quotients and the recursive decomposition of the group.
# ---------------------------------------------------------------------------


def delta_vector(graph: GasketGraph, index: int) -> list[int]:
    vec = [0] * graph.n_vertices
    vec[index] = 1
    return vec


def quotient_invariants(graph: GasketGraph, generators: list[list[int]]) -> list[int]:
    """Invariant factors (> 1) of the sandpile group modulo the subgroup
    generated by the given integer vectors' classes.

    Computed as the cokernel of [Delta | g1 | ... | gk], reduced modulo the
    group order throughout; that is legal because order * Z^V already lies in
    the column lattice of Delta.
    """
    n = graph.n_vertices
    for g in generators:
        if len(g) != n:
            raise ValueError("generator length must match vertex count")
    delta = reduced_laplacian(graph)
    augmented = [delta[i] + [g[i] for g in generators] for i in range(n)]
    dec = smith_mod(augmented, lattice_data(graph).order)
    return [d for d in dec.diag if d > 1]


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
        return {
            "check": "group_theorem",
            "level": self.level,
            "pass": self.passed,
            "details": {
                "convention": self.convention,
                "lhs_factors": [str(d) for d in self.lhs_factors],
                "rhs_factors": [str(d) for d in self.rhs_factors],
                "lhs_order": str(self.lhs_order),
                "rhs_order": str(self.rhs_order),
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
    jidx = graph.junction_index(side)
    image = set(subcopy_embedding(graph.level, copy))
    vec = [0] * graph.n_vertices
    hits = 0
    for w in graph.neighbors[jidx]:
        if w in image:
            vec[w] = 1
            hits += 1
    if hits != 2:
        raise ArithmeticError(f"junction {side} should have 2 neighbors in copy {copy}")
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
    x, y, z = (child.corner_index(name) for name in CORNER_NAMES)
    rhs_parts = [
        quotient_invariants(child, [delta_vector(child, i), delta_vector(child, j)])
        for i, j in ((x, y), (y, z), (z, x))
    ]
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
        lhs_order=math.prod(lhs),
        rhs_order=math.prod(d for part in rhs_parts for d in part),
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

