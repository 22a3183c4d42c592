import copy
import dataclasses
import functools
import hashlib
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_form

from gasketpile import cli, gasket, group, localsmith, sandpile, selfsim
from gasketpile.gasket import (
    CORNER_NAMES,
    LOWER_LEFT,
    LOWER_RIGHT,
    NORMAL,
    TOP,
    build_gasket,
    cell_index,
    corner_sink,
    laplacian_product,
    reduced_laplacian,
)

from test_acceptance import GROUP_ORDERS, tau_fourth_power_identity
from test_gasket import cofactor_det

LEVEL3_FACTORS = [2, 2, 6, 6, 6, 6, 6, 6, 6, 6, 30, 90, 29790, 148950]
LEVEL4_FACTORS = [2] * 2 + [6] * 26 + [30] + [90] * 8 + [450, 1350, 2015550, 10077750]
BOUNDARIES = (NORMAL, *(corner_sink(name) for name in CORNER_NAMES))


def random_matrix(rng, rows, cols, span=9):
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


def random_nonsingular(rng, n, span=9):
    while True:
        m = random_matrix(rng, n, n, span)
        if group.determinant(m) != 0:
            return m


def mat_mul(a, b):
    bt = [list(col) for col in zip(*b)] if b else []
    return [[sum(x * y for x, y in zip(ra, cb)) for cb in bt] for ra in a]


def mat_vec(a, x):
    return [sum(r[k] * x[k] for k in range(len(x))) for r in a]


def exact_div(num, den):
    q, r = divmod(num, den)
    assert r == 0, "fraction-free elimination produced a remainder"
    return q


def dense_bareiss(matrix):
    """Determinant by dense Bareiss elimination over every row below the
    pivot: the reference for the banded kernel."""
    n = len(matrix)
    a = [[int(v) for v in row] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[k][k]
        rowk = a[k]
        for i in range(k + 1, n):
            rowi = a[i]
            aik = rowi[k]
            a[i] = rowi[: k + 1] + [
                exact_div(rowi[j] * piv - aik * rowk[j], prev) for j in range(k + 1, n)
            ]
        prev = piv
    return sign * a[n - 1][n - 1] if n else 1


def dense_gauss_jordan(matrix):
    """(B, |det|) with matrix @ B == |det| * I by dense fraction-free
    Gauss-Jordan on [A | I]; ArithmeticError if singular."""
    n = len(matrix)
    a = [
        [int(v) for v in row] + [1 if i == j else 0 for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    break
            else:
                raise ArithmeticError("matrix is singular")
        piv = a[k][k]
        rowk = a[k]
        for i in range(n):
            if i == k:
                continue
            rowi = a[i]
            aik = rowi[k]
            a[i] = [exact_div(rowi[j] * piv - aik * rowk[j], prev) for j in range(2 * n)]
        prev = piv
    det = a[n - 1][n - 1] if n else 1
    if det < 0:
        return [[-v for v in row[n:]] for row in a], -det
    return [row[n:] for row in a], det


def smith_coordinates(data, entries):
    """Canonical label of the class of `entries`: its adapted-basis
    coordinates on the cyclic summands of `data`, reduced modulo their
    orders, as O(n) Python sums per summand."""
    x = list(entries)
    return [sum(u * v for u, v in zip(data.Uinv[i], x)) % d for i, d in data.cyclic]


def element_order(graph, entries):
    """Order of the class of `entries` in the sandpile group: the common
    denominator of Delta^{-1} @ x."""
    return group.lattice_data(graph).solve(entries)[1]


# ---------------------------------------------------------------------------
# Determinants.
# ---------------------------------------------------------------------------


def test_determinant_small_cases():
    assert group.determinant([[7]]) == 7
    assert group.determinant([[1, 2], [3, 4]]) == -2
    assert group.determinant([[1, 2], [2, 4]]) == 0
    assert group.determinant(reduced_laplacian(build_gasket(0))) == 50
    assert group.determinant(reduced_laplacian(build_gasket(1))) == 1444


def test_determinant_matches_cofactor_oracle_on_randoms():
    rng = random.Random(1)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 5), 0)
        n = len(m)
        m = random_matrix(rng, n, n)
        assert group.determinant(m) == cofactor_det(m)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=4, max_size=4))
def test_determinant_matches_cofactor_oracle(rows):
    assert group.determinant(rows) == cofactor_det(rows)


def first_pivot(m):
    """The row and column that `_fraction_free` eliminates first: the head
    of the minimum-degree order, which depends on the off-diagonal pattern
    alone."""
    return group._minimum_degree_order(group._sparse_rows(m))[0]


def reference_cases(rng, count):
    """Random 1x1 to 8x8 matrices, dense and sparse.  A third get a zero
    diagonal entry at the first pivot of the elimination order (a row swap
    at the first step) and a third a repeated row (singular; a zero entry at
    1x1).  About half of the rest have a negative determinant."""
    for _ in range(count):
        n = rng.randint(1, 8)
        density = rng.choice((0.2, 0.4, 0.7, 1.0))
        m = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        kind = rng.randrange(3)
        if kind == 1 or (kind == 2 and n == 1):
            k = first_pivot(m)
            m[k][k] = 0
        elif kind == 2:
            i, j = rng.sample(range(n), 2)
            m[i] = list(m[j])
        yield m


def test_fraction_free_kernel_equals_the_dense_references():
    rng = random.Random(14)
    seen = {"swap": 0, "singular": 0, "negative": 0}
    for m in reference_cases(rng, 1500):
        det = group.determinant(m)
        assert det == dense_bareiss(m)
        k = first_pivot(m)
        seen["swap"] += m[k][k] == 0 and any(row[k] for row in m)
        seen["negative"] += det < 0
        if det == 0:
            seen["singular"] += 1
            with pytest.raises(ArithmeticError):
                group.scaled_inverse(m)
            with pytest.raises(ArithmeticError):
                dense_gauss_jordan(m)
        else:
            assert group.scaled_inverse(m) == dense_gauss_jordan(m)
    assert min(seen.values()) >= 100, seen


def test_fraction_free_kernel_swaps_a_zero_pivot_for_the_lowest_row():
    # Full patterns keep the canonical order, so positions are row indices.
    # The leading entry is zero; rows 1 and 2 both qualify, row 1 is taken.
    m = [[0, 2, 1], [3, 1, 4], [5, 9, 2]]
    assert group._minimum_degree_order(group._sparse_rows(m)) == [0, 1, 2]
    assert group.determinant(m) == dense_bareiss(m) == cofactor_det(m) == 50
    # Here the second pivot vanishes only after the first step.
    m = [[1, 2, 3], [2, 4, 1], [3, 1, 5]]
    assert group.determinant(m) == dense_bareiss(m) == cofactor_det(m)
    b, scale = group.scaled_inverse(m)
    assert (b, scale) == dense_gauss_jordan(m)
    assert mat_mul(m, b) == [[scale * v for v in row] for row in group.mat_identity(3)]
    assert group.determinant([[0, 0], [0, 5]]) == 0


def test_elimination_order_takes_the_least_degree_first():
    # An arrow matrix: row and column 0 are full, the rest is diagonal but
    # for one entry joining 2 and 5.  In canonical order the hub's
    # elimination fills every row.  By degree the leaves of degree 1 go
    # first; then the hub ties 2 and 5 at degree 2 and goes first, the
    # lowest index, and its elimination makes no fill.
    n = 7
    m = [[4 if i == j else (1 + i + j if 0 in (i, j) else 0) for j in range(n)] for i in range(n)]
    m[2][5] = 3  # one-sided: the pattern is symmetrized
    rows = group._sparse_rows(m)
    assert group._minimum_degree_order(rows) == [1, 3, 4, 6, 0, 2, 5]
    assert group.determinant(m) == dense_bareiss(m) == cofactor_det(m)
    b, scale = group.scaled_inverse(m)
    assert (b, scale) == dense_gauss_jordan(m)
    # The 4-cycle 0-2-1-3: eliminating 0 joins 2 and 3, so 1, 2 and 3 all
    # keep degree 2 and 1 goes next; without the fill 2 would, at degree 1.
    cycle = [[4, 0, -1, -1], [0, 4, -1, -1], [-1, -1, 4, 0], [-1, -1, 0, 4]]
    assert group._minimum_degree_order(group._sparse_rows(cycle)) == [0, 1, 2, 3]


def test_reference_paths_use_neither_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a reference path called a production engine")

    lap = reduced_laplacian(build_gasket(2))
    monkeypatch.setattr(group, "lattice_data", refuse)
    monkeypatch.setattr(group, "smith_mod", refuse)
    assert group.determinant(lap) == GROUP_ORDERS[2]
    assert group.scaled_inverse(lap)[1] == GROUP_ORDERS[2]


def test_determinant_transpose_invariance():
    rng = random.Random(2)
    for _ in range(20):
        m = random_matrix(rng, 5, 5)
        t = [list(col) for col in zip(*m)]
        assert group.determinant(m) == group.determinant(t)


# ---------------------------------------------------------------------------
# Bounded-entry Smith reduction modulo the group order, against sympy's Smith
# normal form over ZZ as the oracle.
# ---------------------------------------------------------------------------


def oracle_diagonal(matrix):
    """Smith diagonal of an integer matrix by sympy, padded with zeros to the
    row count: one entry per cokernel summand, 0 for an infinite one."""
    rows, cols = len(matrix), len(matrix[0])
    dm = DomainMatrix([[ZZ(v) for v in row] for row in matrix], (rows, cols), ZZ)
    snf = smith_normal_form(dm).to_list()
    diag = [abs(int(snf[i][i])) for i in range(min(rows, cols))]
    return diag + [0] * (rows - len(diag))


def assert_exact_adapted_basis(basis, matrix):
    """U @ Uinv == I exactly, and every column of the square matrix has
    coordinates divisible by the factors."""
    n = len(matrix)
    assert mat_mul(basis.U, basis.Uinv) == group.mat_identity(n)
    for j in range(n):
        coords = mat_vec(basis.Uinv, [matrix[i][j] for i in range(n)])
        assert all(c % d == 0 for c, d in zip(coords, basis.diag))


def assert_smith_mod_matches_the_oracle(matrix, modulus):
    """smith_mod's factors modulo R are gcd(d, R) for the oracle's d: a zero
    factor is an infinite summand, which modulo R becomes Z/R.  A square
    nonsingular input, whose factors all divide R, also gets its adapted
    basis checked."""
    oracle = oracle_diagonal(matrix)
    assert group.smith_mod(matrix, modulus).diag == [math.gcd(d, modulus) for d in oracle]
    if len(matrix) == len(matrix[0]) and all(oracle) and modulus % math.prod(oracle) == 0:
        basis = group.smith_mod(matrix, modulus, transforms=True)
        assert basis.diag == oracle
        assert_exact_adapted_basis(basis, matrix)


def moduli(matrix):
    """k times the product of the oracle's nonzero factors, k = 1, 2, 3."""
    base = math.prod(d for d in oracle_diagonal(matrix) if d)
    return [k * base for k in (1, 2, 3)]


@pytest.mark.parametrize(
    "matrix",
    [
        [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
        [[2, 0], [0, 3]],
        [[0, 0], [0, 0]],
        [[1, 0], [0, 1]],
        [[2, 4, 6]],
        [[3], [6], [9]],
        [[1, 2], [3, 7]],
        [[1, -1, 0], [2, -2, 0], [0, 0, 0]],
        [[1, 1, 2], [-1, 0, 3]],
        [[-1, 0], [0, 2], [1, 4]],
    ],
    ids=["textbook", "diagonal", "zero", "identity", "wide", "tall", "unimodular", "emptied", "units-wide", "units-tall"],
)
def test_smith_mod_matches_the_oracle_on_fixed_matrices(matrix):
    for modulus in moduli(matrix):
        assert_smith_mod_matches_the_oracle(matrix, modulus)


def test_smith_mod_matches_the_oracle_on_random_rectangular_matrices():
    rng = random.Random(3)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        for modulus in moduli(m):
            assert_smith_mod_matches_the_oracle(m, modulus)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3))
def test_smith_mod_matches_the_oracle_on_3x3_matrices(rows):
    oracle = oracle_diagonal(rows)
    assert math.prod(oracle) == abs(group.determinant(rows))
    for modulus in moduli(rows):
        assert_smith_mod_matches_the_oracle(rows, modulus)


def test_smith_mod_matches_dense_snf_on_randoms():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_nonsingular(rng, n)
        det = abs(group.determinant(m))
        assert group.smith_mod(m, det).diag == oracle_diagonal(m)


def test_smith_mod_accepts_any_multiple_of_the_determinant():
    rng = random.Random(5)
    for _ in range(20):
        m = random_nonsingular(rng, 4)
        det = abs(group.determinant(m))
        base = group.smith_mod(m, det).diag
        assert group.smith_mod(m, 3 * det).diag == base


def test_smith_mod_transforms_give_an_adapted_basis():
    rng = random.Random(6)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = random_nonsingular(rng, n)
        det = abs(group.determinant(m))
        basis = group.smith_mod(m, det, transforms=True)
        assert abs(group.determinant(basis.U)) == 1
        assert mat_mul(basis.U, basis.Uinv) == group.mat_identity(n)
        for a, b in zip(basis.diag, basis.diag[1:]):
            assert b % a == 0
        # Every column of the input lies in U diag(d) Z^n.
        cols = [[m[i][j] for i in range(n)] for j in range(n)]
        for col in cols:
            coords = mat_vec(basis.Uinv, col)
            assert all(c % d == 0 for c, d in zip(coords, basis.diag))
        # Every adapted generator lies in col(m) + det * Z^n.
        adj, scale = group.scaled_inverse(m)
        for j in range(n):
            gen = [basis.U[i][j] * basis.diag[j] for i in range(n)]
            assert all(v % scale == 0 for v in mat_vec(adj, gen))


def test_smith_mod_entries_stay_bounded():
    lap = reduced_laplacian(build_gasket(3))
    order = abs(group.determinant(lap))
    basis = group.smith_mod(lap, order)
    assert math.prod(basis.diag) == order


def unit_dense_matrix(rng, rows, cols):
    """Mostly +-1 entries, like a Laplacian's off-diagonal, with a few zeros
    and small multiples so that nontrivial factors and Euclid rounds occur."""
    return [[rng.choice((-1, 1, -1, 1, 0, 2, -2, 3)) for _ in range(cols)] for _ in range(rows)]


def unit_sparse_matrix(rng, rows, cols):
    """Mostly zeros with +-1 entries and a few others, like a Laplacian: the
    +-1 pivots split off over Z fill in entries that later pivots clear."""
    return [[rng.choice((0, 0, 0, 0, 1, -1, -1, 2, 3)) for _ in range(cols)] for _ in range(rows)]


def assert_factors_modulo(matrix, modulus, oracle):
    """smith_mod's factors modulo R are gcd(d, R) for the oracle's d, and on
    a square input the transforms run gives the same factors."""
    diag = group.smith_mod(matrix, modulus).diag
    assert diag == [math.gcd(d, modulus) for d in oracle]
    if len(matrix) == len(matrix[0]):
        assert group.smith_mod(matrix, modulus, transforms=True).diag == diag


def test_smith_mod_matches_the_oracle_on_unit_dense_matrices():
    rng = random.Random(11)
    for _ in range(150):
        rows = rng.randint(1, 6)
        cols = rng.randint(rows, 8)
        m = unit_dense_matrix(rng, rows, cols)
        k = rng.choice((1, 3))
        assert_smith_mod_matches_the_oracle(m, k * math.prod(d for d in oracle_diagonal(m) if d))
    # Tall and wide +-1-rich matrices, dense and sparse, modulo a multiple
    # of the factors' product, 1, 2, 3, a prime power and a random value up
    # to 10^20.  Each entry is also lifted by -R, 0 or R, which turns a -1 into
    # R - 1 and a 1 into R + 1 or 1 - R: only residues count, so the factors
    # stay the same.
    rng = random.Random(47)
    for _ in range(150):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        make = rng.choice((unit_dense_matrix, unit_sparse_matrix))
        m = make(rng, rows, cols)
        oracle = oracle_diagonal(m)
        base = math.prod(d for d in oracle if d)
        prime_power = rng.choice((2, 3, 5, 7)) ** rng.randint(1, 8)
        for modulus in (rng.choice((1, 2)) * base, 1, 2, 3, prime_power, rng.randint(1, 10**20)):
            assert_factors_modulo(m, modulus, oracle)
            lifted = [[v + modulus * rng.choice((-1, 0, 1)) for v in row] for row in m]
            assert_factors_modulo(lifted, modulus, oracle)


# The junction-copy assignment with the roles of the copies turned: left
# with lower-left, bottom with lower-right, right with top.  The reflection
# (a, b) -> (b, a) maps the production assignment onto it, so its quotient
# must be the same group.
FLIPPED_ASSIGNMENT = (("left", LOWER_LEFT), ("bottom", LOWER_RIGHT), ("right", TOP))


def theorem_generator_sets(graph):
    """The generator sets the group theorem quotients by at this level: the
    corner-delta pairs, and the junction deltas with either assignment of
    junction-neighbor pairs."""
    x, y, z = (graph.corner_index(name) for name in CORNER_NAMES)
    sets = [
        [group.delta_vector(graph, i), group.delta_vector(graph, j)]
        for i, j in ((x, y), (y, z), (z, x))
    ]
    if graph.level >= 1:
        junctions = [
            group.delta_vector(graph, graph.junction_index(side))
            for side in ("left", "right", "bottom")
        ]
        for assignment in (group._PRIMARY_ASSIGNMENT, FLIPPED_ASSIGNMENT):
            pairs = [group._junction_copy_vector(graph, side, copy) for side, copy in assignment]
            sets += [pairs + junctions, pairs, junctions]
    return sets


@pytest.mark.parametrize("level", [0, 1, 2])
def test_smith_mod_matches_the_oracle_on_augmented_laplacians(level):
    graph = build_gasket(level)
    delta = reduced_laplacian(graph)
    order = group.sandpile_group_order(graph)
    n = graph.n_vertices
    generator_sets = theorem_generator_sets(graph)
    generator_sets += [[group.delta_vector(graph, v)] for v in range(n)]
    rng = random.Random(12 + level)
    for _ in range(10):
        count = rng.randint(1, 3)
        generator_sets.append([[rng.choice((-1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(count)])
    for gens in generator_sets:
        augmented = [delta[i] + [g[i] for g in gens] for i in range(n)]
        oracle = oracle_diagonal(augmented)
        for k in (1, 3):
            assert group.smith_mod(augmented, k * order).diag == oracle


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_smith_mod_gives_an_exact_adapted_basis_of_the_laplacian(level):
    graph = build_gasket(level)
    delta = reduced_laplacian(graph)
    basis = group.smith_mod(delta, group.sandpile_group_order(graph), transforms=True)
    assert [d for d in basis.diag if d > 1] == list(group.lattice_data(graph).invariants)
    assert_exact_adapted_basis(basis, delta)


def test_smith_mod_residue_zero_stands_for_the_modulus():
    # A block that vanishes modulo R is killed by the phantom columns alone.
    assert group.smith_mod([[6]], 6).diag == [6]
    assert group.smith_mod([[0, 0], [0, 0]], 5).diag == [5, 5]
    # Restoring the chain on (2, 3) gives lcm 6, which is 0 modulo R = 6.
    for transforms in (False, True):
        assert group.smith_mod([[2, 0], [0, 3]], 6, transforms=transforms).diag == [1, 6]
    # Level 0 modulo 10: the factor 10 reduces to a zero residue.
    lap = reduced_laplacian(build_gasket(0))
    basis = group.smith_mod(lap, 10, transforms=True)
    assert basis.diag == [1, 5, 10]
    assert_exact_adapted_basis(basis, lap)


# SHA-256 of repr((diag, U, Uinv)) from smith_mod(Delta, order, transforms=True),
# taken before the search skipped rows without a unit: the pivot sequence,
# and with it the adapted basis, must not change.
ADAPTED_BASIS_DIGESTS = {
    (2, NORMAL): "685c64cd9a4eedcc582f5a6a82a58fd3d655f73c2813d513e3ee04a35b6214ac",
    (2, corner_sink(TOP)): "0f667e9c958539fa56eebd2184cac5e6c251d622d8f303197fe399dc796223d7",
    (3, NORMAL): "024cc0e38cd9372316d95de5f69cf8c4079aef0e8f4912c790cc6866e4f19c94",
    (3, corner_sink(TOP)): "bda209fe4e7479ed9be62835bff3cd8c2e933afaa01456e2388360b162ae565f",
}


@pytest.mark.parametrize("level, boundary", ADAPTED_BASIS_DIGESTS, ids=lambda v: str(v) if isinstance(v, int) else v.token())
def test_smith_mod_keeps_its_pivot_sequence(level, boundary):
    graph = build_gasket(level, boundary)
    basis = group.smith_mod(reduced_laplacian(graph), group.sandpile_group_order(graph), transforms=True)
    digest = hashlib.sha256(repr((basis.diag, basis.U, basis.Uinv)).encode()).hexdigest()
    assert digest == ADAPTED_BASIS_DIGESTS[level, boundary]


def test_smith_mod_keeps_its_pivot_sequence_on_random_matrices():
    # Entries from {0, +-1, +-2, 3} make units appear and vanish under row
    # operations; the digest was taken with the same battery before the
    # search skipped rows without a unit.
    rng = random.Random(45)
    digest = hashlib.sha256()
    for _ in range(300):
        n = rng.randint(2, 7)
        matrix = [[rng.choice((-1, 0, 1, 2, -2, 3)) for _ in range(n)] for _ in range(n)]
        modulus = rng.choice((1, 2, 3, 6, 12, rng.randint(1, 10**6)))
        basis = group.smith_mod(matrix, modulus, transforms=True)
        digest.update(repr((basis.diag, basis.U, basis.Uinv)).encode())
    assert digest.hexdigest() == "c27a4b47b5a784a932deb5801f3fdcb61e890ccaf318e64188c59c0d1fcba360"


@pytest.mark.parametrize("modulus", [1, 2])
def test_smith_mod_modulo_one_and_two(modulus):
    # Modulo 1 every residue is 0 and no entry is a unit; modulo 2 the two
    # units 1 and R - 1 coincide.
    assert group.smith_mod([], modulus).diag == []
    assert group.smith_mod([], modulus, transforms=True).diag == []
    assert group.smith_mod([[]], modulus).diag == [modulus]
    rng = random.Random(17 + modulus)
    matrices = [[[0]], [[1]], [[1, 1], [1, 1]], [[2, 0], [0, 3]]]
    matrices += [unit_dense_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(40)]
    for matrix in matrices:
        expected = [math.gcd(d, modulus) for d in oracle_diagonal(matrix)]
        assert group.smith_mod(matrix, modulus).diag == expected
        if len(matrix) == len(matrix[0]):
            basis = group.smith_mod(matrix, modulus, transforms=True)
            assert basis.diag == expected
            assert_exact_adapted_basis(basis, matrix)


def test_smith_mod_matches_the_oracle_in_euclid_passes():
    # Entries without +-1, so that a pivot is rarely a unit and most columns
    # are cleared by Euclid passes: without transforms the least remainder of
    # a pass is the next pivot, with them the first.  Both give the oracle's
    # factors.
    rng = random.Random(46)
    for _ in range(300):
        rows = rng.randint(1, 7)
        cols = rows if rng.random() < 0.5 else rng.randint(1, 7)
        matrix = [[rng.choice((0, 2, -2, 3, -3, 4, -4, 6, 9, 10, 15)) for _ in range(cols)] for _ in range(rows)]
        oracle = oracle_diagonal(matrix)
        base = math.prod(d for d in oracle if d)
        prime_power = rng.choice((2, 3, 5, 7)) ** rng.randint(1, 6)
        for modulus in (rng.randint(1, 3) * base, 1, 2, prime_power, rng.randint(1, 10**12)):
            expected = [math.gcd(d, modulus) for d in oracle]
            diag = group.smith_mod(matrix, modulus).diag
            assert diag == expected
            if rows == cols:
                basis = group.smith_mod(matrix, modulus, transforms=True)
                assert basis.diag == diag
                assert_exact_adapted_basis(basis, matrix)


def smith_mod_lines(matrix, modulus, transforms=False):
    """Lines run in `smith_mod`'s own frame (its pivot searches and pass
    bookkeeping, not its row operations): a deterministic count of work."""
    code = group.smith_mod.__code__
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        group.smith_mod(matrix, modulus, transforms)
    finally:
        sys.settrace(previous)
    return count


def test_smith_mod_search_passes_over_rows_without_a_unit():
    # Eight rows without a unit over a -I block of 32: every unit pivot lies
    # below them.  The search skips them once they are flagged, so they cost
    # little more than when they come last; scanning them for every pivot
    # would cost about ten times as much.  Without transforms the -I block
    # is split off before the dense core sees it, so the search is measured
    # with transforms, whose pivot search is the same.
    rng = random.Random(8)
    k, n = 8, 40
    top = [[rng.choice((2, 3, 4, 6, 9)) for _ in range(k)] + [0] * (n - k) for _ in range(k)]
    below = [[0] * k + [-(i == j) for j in range(n - k)] for i in range(n - k)]
    modulus = 10**12 + 39
    assert group.smith_mod(top + below, modulus).diag == group.smith_mod(below + top, modulus).diag
    assert smith_mod_lines(top + below, modulus) < 2 * smith_mod_lines(below + top, modulus)
    assert smith_mod_lines(top + below, modulus, True) < 2 * smith_mod_lines(below + top, modulus, True)


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_unit_pivots_split_off_before_the_dense_core(level, boundary):
    # Each pivot takes one row, and the block left holds no +-1 entry.
    graph = build_gasket(level, boundary)
    delta = reduced_laplacian(graph)
    order = group.lattice_data(graph).order
    pivots, block = group._split_unit_pivots(delta, order)
    assert pivots + len(block) == len(delta)
    assert all(v not in (1, order - 1) for row in block for v in row)
    assert all(0 <= v < order for row in block for v in row)


def test_level4_adapted_basis_is_unimodular():
    # Freivalds: U @ (Uinv @ x) == x and Uinv @ (Delta @ x) divisible by the
    # factors, for fixed random x, without forming the big-entry products.
    graph = build_gasket(4)
    delta = reduced_laplacian(graph)
    data = group.lattice_data(graph)
    rng = random.Random(13)
    for _ in range(3):
        x = [rng.randint(-1000, 1000) for _ in range(graph.n_vertices)]
        assert mat_vec(data.U, mat_vec(data.Uinv, x)) == x
        coords = mat_vec(data.Uinv, mat_vec(delta, x))
        assert all(c % d == 0 for c, d in zip(coords, data.basis.diag))


# ---------------------------------------------------------------------------
# Exact scaled inverse.
# ---------------------------------------------------------------------------


def test_scaled_inverse_small_case():
    b, scale = group.scaled_inverse([[2, 1], [1, 1]])
    assert scale == 1
    assert b == [[1, -1], [-1, 2]]


def test_scaled_inverse_is_the_positive_adjugate():
    rng = random.Random(7)
    ident = group.mat_identity(4)
    for _ in range(40):
        m = random_nonsingular(rng, 4)
        b, scale = group.scaled_inverse(m)
        assert scale == abs(group.determinant(m))
        product = mat_mul(m, b)
        assert product == [[scale * ident[i][j] for j in range(4)] for i in range(4)]


def test_scaled_inverse_rejects_singular():
    with pytest.raises(ArithmeticError):
        group.scaled_inverse([[1, 2], [2, 4]])


# ---------------------------------------------------------------------------
# Sparse factorization of the reduced Laplacian, against dense references.
# ---------------------------------------------------------------------------


def v2(x, infinite):
    return (x & -x).bit_length() - 1 if x else infinite


def minus_product(r, f, b):
    """r - f * b for rationals held as (numerator, denominator) pairs in
    lowest terms with a positive denominator."""
    num = r[0] * f[1] * b[1] - f[0] * b[0] * r[1]
    den = r[1] * f[1] * b[1]
    g = math.gcd(num, den)
    return num // g, den // g


def quotient(a, p):
    """a / p for p > 0."""
    num, den = a[0] * p[1], a[1] * p[0]
    g = math.gcd(num, den)
    return num // g, den // g


def tuple_factor(graph):
    """The reference factorization: a dict-of-rows LDL^T of Delta over Q,
    one vertex at a time in order of min(v2(a), v2(b)) (ties canonical), with
    a gcd per entry.  Returns (sequence, pivots, below): the elimination
    order, the pivots and each step's column of L under its pivot."""
    infinite = graph.level + 1
    sequence = sorted(range(graph.n_vertices), key=lambda v: min(v2(x, infinite) for x in graph.points[v].tolist()))
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
            f = quotient(a, pivot)
            col.append((w, f))
            diag[w] = minus_product(diag[w], f, a)
            for u, b in items[i + 1 :]:
                row_w[u] = rows[u][w] = minus_product(row_w.get(u, (0, 1)), f, b)
        pivots.append(pivot)
        below.append(col)
    return sequence, pivots, below


def tuple_solve(reference, x):
    """(y, D) with Delta @ y == D * x and D least, through the reference
    factorization: forward substitution, pivots, back substitution."""
    sequence, pivots, below = reference
    z = [(v, 1) for v in x]
    for v, col in zip(sequence, below):
        if z[v][0]:
            for w, entry in col:
                z[w] = minus_product(z[w], entry, z[v])
    for v, pivot in zip(sequence, pivots):
        z[v] = quotient(z[v], pivot)
    for v, col in zip(reversed(sequence), reversed(below)):
        for w, entry in col:
            z[v] = minus_product(z[v], entry, z[w])
    den = math.lcm(*(d for _, d in z))
    return [num * (den // d) for num, d in z], den


@functools.lru_cache(maxsize=None)
def cached_tuple_factor(graph):
    return tuple_factor(graph)


def decimation_order(level):
    """Closed form of the Delta-Y decimation of the normally wired gasket:
    each level-1 cell's midpoint block has determinant 50 c^3, the
    conductance goes c -> 3c/5 per level, and the three corners left at the
    end, each with sink conductance 2, give 2 (2 + 3c)^2."""
    c = Fraction(1)
    order = Fraction(1)
    for k in range(level):
        order *= (50 * c**3) ** (3 ** (level - 1 - k))
        c = 3 * c / 5
    return order * 2 * (2 + 3 * c) ** 2


def fractions(exact):
    num, den = exact
    return [[Fraction(v, den) for v in row] for row in num]


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_factor_determinant_equals_bareiss(level, boundary):
    graph = build_gasket(level, boundary)
    assert group.lattice_data(graph).order == group.determinant(reduced_laplacian(graph))


@pytest.mark.parametrize("level", range(9))
def test_factor_determinant_equals_the_reference_pivot_product(level):
    for boundary in BOUNDARIES:
        graph = build_gasket(level, boundary)
        _, pivots, _ = cached_tuple_factor(graph)
        det, rem = divmod(math.prod(p for p, _ in pivots), math.prod(q for _, q in pivots))
        assert rem == 0
        assert group.lattice_data(graph).order == det


@pytest.mark.parametrize("level", range(6))
def test_factor_eliminates_finest_cells_first_with_bounded_fill(level):
    """Level k's cells have as midpoints exactly the vertices of valuation k
    and as corners vertices of higher valuation (a sunk corner as the
    padding n); each midpoint touches only its own cell, the elimination
    takes the midpoints level by level and cell by cell, and every cell's
    blocks are (3/5)^k times the level-1 cell's: M is the inverse of
    `inverse`, and B is M `reach`."""
    cell = [[4, -1, -1], [-1, 4, -1], [-1, -1, 4]]
    touch = [[-1, -1, 0], [-1, 0, -1], [0, -1, -1]]
    for boundary in BOUNDARIES:
        graph = build_gasket(level, boundary)
        n = graph.n_vertices
        data = group.lattice_data(graph)
        all_mids, all_corners, _ = cell_index(graph)
        valuation = [min(v2(x, level + 1) for x in c) for c in graph.points.tolist()]
        assert len(all_mids) == len(all_corners) == len(data.inverse) == len(data.reach) == level
        start = 0
        for k, (mids, corners) in enumerate(zip(all_mids, all_corners)):
            assert mids.shape == corners.shape == (3 ** (level - 1 - k), 3)
            assert sorted(mids.ravel().tolist()) == [v for v in range(n) if valuation[v] == k]
            assert all(v == n or valuation[v] > k for v in corners.ravel().tolist())
            assert (corners == n).sum() == (boundary.kind == "corner_sink")
            if k == 0:
                for cell_mids, cell_corners in zip(mids.tolist(), corners.tolist()):
                    for v in cell_mids:
                        assert set(graph.neighbors[v]) <= set(cell_mids + cell_corners)
            assert data.elimination[start : start + mids.size].tolist() == mids.ravel().tolist()
            assert (data.corner_positions[k] == data.position[corners]).all()
            start += mids.size
            num, den = data.inverse[k]
            adjugate, det = dense_gauss_jordan(num.tolist())
            block = [[Fraction(den * v, det) for v in row] for row in adjugate]
            c = Fraction(3, 5) ** k
            assert block == [[c * v for v in row] for row in cell]
            # A corner slot that is the sink in every cell is never read.
            real = [j for j in range(3) if (corners[:, j] != n).any()]
            coupling = mat_mul(block, fractions(data.reach[k]))
            assert [[row[j] for j in real] for row in coupling] == [[c * row[j] for j in real] for row in touch]
        corners_left = [graph.corner_index(name) for name in CORNER_NAMES]
        assert data.elimination[start:].tolist() == [v for v in corners_left if v is not None] + [n]
        assert (data.position[data.elimination] == np.arange(n + 1)).all()


@pytest.mark.parametrize("level", range(9))
def test_decimation_closed_form_equals_the_factorization(level):
    order = decimation_order(level)
    assert order.denominator == 1
    assert group.lattice_data(build_gasket(level)).order == order
    if level in GROUP_ORDERS:
        assert order == GROUP_ORDERS[level]
        assert group.sandpile_group_order(build_gasket(level)) == order


def random_vectors(rng, n):
    yield [1] * n
    yield [0] * n
    for span in (3, 10**6, 10**40):
        for _ in range(3):
            yield [rng.randint(-span, span) for _ in range(n)]


@pytest.mark.parametrize("level", range(5))
def test_solve_equals_the_dense_adjugate(level):
    rng = random.Random(40 + level)
    for boundary in (NORMAL, corner_sink(CORNER_NAMES[level % 3])):
        graph = build_gasket(level, boundary)
        adj, det = group.scaled_inverse(reduced_laplacian(graph))
        data = group.lattice_data(graph)
        for x in random_vectors(rng, graph.n_vertices):
            y, den = data.solve(x)
            assert den >= 1
            assert [Fraction(v, den) for v in y] == [Fraction(v, det) for v in mat_vec(adj, x)]
            # den is the least common denominator.
            assert math.gcd(den, *y) == 1


def certificate_vectors(graph):
    """The chip vectors the self-similarity certificates solve for: 3^n at
    the corners other than a sunk one (corner transport) and, at level >= 1,
    2 * 3^(n-1) at the junctions (junction invariance)."""
    level = graph.level
    transport = [0] * graph.n_vertices
    for name in CORNER_NAMES:
        v = graph.corner_index(name)
        if v is not None:
            transport[v] = 3**level
    yield transport
    if level >= 1:
        junction = [0] * graph.n_vertices
        for side in ("left", "right", "bottom"):
            junction[graph.junction_index(side)] = 2 * 3 ** (level - 1)
        yield junction


@pytest.mark.parametrize("level", range(9))
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_solve_equals_the_tuple_rational_reference(level, boundary):
    graph = build_gasket(level, boundary)
    n = graph.n_vertices
    rng = random.Random(70 + level)
    data = group.lattice_data(graph)
    reference = cached_tuple_factor(graph)
    vectors = [[0] * n]
    vectors += [[rng.randint(-span, span) for _ in range(n)] for span in (3, 10**6, 10**40)]
    for v in rng.sample(range(n), min(n, 2)):
        column = [0] * n
        column[v] = graph.degrees[v]
        for w in graph.neighbors[v]:
            column[w] = -1
        vectors.append([rng.randint(-9, 9) * c for c in column])
    vectors += certificate_vectors(graph)
    for x in vectors:
        assert data.solve(x) == tuple_solve(reference, x)


def test_solve_rejects_a_corrupted_factor(monkeypatch):
    data = group.lattice_data(build_gasket(3, corner_sink(TOP)))
    x = [random.Random(5).randint(-9, 9) for _ in range(data.graph.n_vertices)]
    assert data.solve(x)[1] > 1

    def corrupted(field, k, change):
        values = list(getattr(data, field))
        values[k] = change(values[k])
        return dataclasses.replace(data, **{field: tuple(values)})

    def bump(exact):
        num, den = exact
        num = num.copy()
        num[0, 0] += 1
        return num, den

    def swap_cells(cells):
        cells = cells.copy()
        cells[[0, 1]] = cells[[1, 0]]
        return cells

    def swap_slots(cells):
        return cells[:, [1, 0, 2]]

    def reordered(change):
        # The level-0 midpoints changed in the elimination, and its inverse
        # rebuilt to match.
        count = len(data.corner_positions[0])
        elimination = data.elimination.copy()
        elimination[: 3 * count] = change(elimination[: 3 * count].reshape(count, 3)).ravel()
        position = np.empty_like(data.position)
        position[elimination] = np.arange(len(elimination))
        return dataclasses.replace(data, elimination=elimination, position=position)

    broken = [
        corrupted("inverse", 0, bump),
        corrupted("inverse", 2, bump),
        corrupted("reach", 0, bump),
        corrupted("reach", 1, bump),
        reordered(swap_slots),
        corrupted("corner_positions", 1, swap_slots),
        corrupted("corner_positions", 0, swap_cells),
        dataclasses.replace(data, top_inverse=bump(data.top_inverse)),
    ]
    for bad in broken:
        with pytest.raises(ArithmeticError):
            bad.solve(x)
    # An index that leaves a vertex out of every cell is refused when the
    # factor is built.
    mids, corners, big = cell_index(data.graph)
    lost = list(mids)
    lost[1] = np.where(mids[1] == mids[1][0, 0], mids[1][0, 1], mids[1])
    monkeypatch.setattr(group, "cell_index", lambda graph: (lost, corners, big))
    with pytest.raises(ArithmeticError, match="cover every vertex"):
        group.lattice_data.__wrapped__(data.graph)


def miswired_graphs():
    """Two level-3 gaskets wired otherwise than their cell layout.  In
    `wired`, a midpoint's edge to a cell mate leads to another cell
    instead.  In `lopsided`, in every finest cell, the bottom midpoint's
    edge to the lower-left corner leads to the left midpoint instead, so
    its table holds the left midpoint twice."""
    graph = build_gasket(3)
    mids, corners, _ = cell_index(graph)
    a, mate, b = (int(v) for v in (mids[0][0, 0], mids[0][0, 1], mids[0][1, 0]))
    table = graph.table.copy()
    table[table[:, a] == mate, a] = b
    wired = dataclasses.replace(graph, table=table)
    table = graph.table.copy()
    for (a, left, _), (corner, _, _) in zip(mids[0].tolist(), corners[0].tolist()):
        table[table[:, a] == corner, a] = left
    lopsided = dataclasses.replace(graph, table=table)
    return {"wired": wired, "lopsided": lopsided}


@pytest.mark.parametrize("name", ["wired", "lopsided"])
def test_reduced_laplacian_columns_are_laplacian_products(name):
    """Each table slot counts once in both, a repeated neighbour too."""
    bad = miswired_graphs()[name]
    dense = np.array(reduced_laplacian(bad))
    for j in range(bad.n_vertices):
        assert dense[:, j].tolist() == laplacian_product(bad, group.delta_vector(bad, j)).tolist()


def test_factor_refuses_cells_that_differ():
    """Cells that differ on the diagonal are refused when the factor is
    built.  The off-diagonal blocks come from the unit triangle, not from
    the graph, so a graph wired otherwise than its cell layout builds a
    factor; its solves and Smith data are then refused, and `in_lattice`
    answers only what an integer certificate on that graph proves."""
    graph = build_gasket(3)
    n = graph.n_vertices
    mid = int(cell_index(graph)[0][0][0, 0])
    degrees = list(graph.degrees)
    degrees[mid] += 1
    heavier = dataclasses.replace(graph, degrees=tuple(degrees))
    with pytest.raises(ArithmeticError, match="differ on the diagonal"):
        group.lattice_data(heavier)
    rng = random.Random(801)
    for bad in miswired_graphs().values():
        data = group.lattice_data(bad)
        with pytest.raises(ArithmeticError, match="sparse solve fails"):
            data.solve([1] * n)
        with pytest.raises(ArithmeticError, match="disagree with the determinant"):
            data.invariants
        # The truth on that graph: x is in the column lattice of its
        # Laplacian iff adj @ x = 0 modulo its determinant.
        laplacian = reduced_laplacian(bad)
        column = [row[5] for row in laplacian]
        adj, det = group.scaled_inverse(laplacian)
        vectors = [column, [1] * n, group.delta_vector(bad, mid)]
        vectors += [[rng.randint(-3, 3) for _ in range(n)] for _ in range(5)]
        vectors += [mat_vec(laplacian, [rng.randint(-2, 2) for _ in range(n)]) for _ in range(3)]
        for x in vectors:
            try:
                answer = group.in_lattice(bad, x)
            except ArithmeticError:
                continue
            assert answer == all(v % det == 0 for v in mat_vec(adj, x))
        assert group.in_lattice(bad, column)


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_factor_reads_only_the_layout_and_the_degrees(level, boundary):
    # With every neighbour slot the padding slot n, the factor is the real
    # graph's: its blocks come from the unit triangle, not the table.
    graph = build_gasket(level, boundary)
    blind = dataclasses.replace(graph, table=np.full_like(graph.table, graph.n_vertices))
    real, built = group.lattice_data(graph), group.lattice_data.__wrapped__(blind)

    def stored(data):
        def exact(pair):
            return pair[0].tolist(), pair[1]

        return (
            data.elimination.tolist(),
            data.position.tolist(),
            [c.tolist() for c in data.corner_positions],
            [exact(inv) for inv in data.inverse],
            [exact(reach) for reach in data.reach],
            exact(data.top_inverse),
            data.powers,
        )

    assert stored(built) == stored(real)


@pytest.mark.parametrize("boundary", (NORMAL, corner_sink(LOWER_RIGHT)), ids=lambda b: b.token())
def test_each_block_is_inverted_once(monkeypatch, boundary):
    # Building the lattice inverts each level's block and the top block; a
    # solve, the order and the invariant factors read what it stored.
    real = group._inverse
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    graph = build_gasket(4, boundary)
    group.lattice_data.cache_clear()
    monkeypatch.setattr(group, "_inverse", counting)
    data = group.lattice_data(graph)
    assert data.solve([1] * graph.n_vertices)[1] > 1
    assert data.order == group.determinant(reduced_laplacian(graph))
    assert math.prod(group.quotient_invariants(graph, [])) == data.order
    assert len(calls) == graph.level + 1


def test_digits_equal_str_across_the_threshold():
    """`digits` against `str` (the digit limit lifted) on 0, +-1 and 10**k - 1,
    10**k, 10**k + 1 from below to far above `_STR_BITS`, and on random
    integers up to 2**18 bits; then, under the least digit limit the
    interpreter allows, on a 10**5-bit integer, which `str` refuses, and
    on integers just above the threshold."""
    before = sys.get_int_max_str_digits()
    rng = random.Random(18)
    values = [0, 1, -1, 2**group._STR_BITS - 1, 2**group._STR_BITS, 2**group._STR_BITS + 1]
    for k in [*range(1, 30), *range(590, 620), 1000, 1234, 5000, 40000]:
        values += [10**k - 1, 10**k, 10**k + 1, -(10**k) - 1]
    values += [rng.choice((1, -1)) * rng.getrandbits(round(2 ** rng.uniform(1, 18))) for _ in range(12)]
    values.append(rng.getrandbits(2**18) | 1 << (2**18 - 1))
    try:
        sys.set_int_max_str_digits(0)
        for v in values:
            assert group.digits(v) == str(v)
        big = rng.getrandbits(10**5) | 1 << (10**5 - 1)
        limited = [big, -big, 10**640, 2**group._STR_BITS + 1]
        want = [str(v) for v in limited]
        sys.set_int_max_str_digits(640)
        with pytest.raises(ValueError):
            str(big)
        assert [group.digits(v) for v in limited] == want
    finally:
        sys.set_int_max_str_digits(before)


def test_non_integral_entries_are_refused():
    graph = build_gasket(2)
    n = graph.n_vertices
    with pytest.raises(TypeError):
        group.in_lattice(graph, [0.5] * n)
    with pytest.raises(TypeError):
        group.lattice_reduce(graph, [1.9] + [0] * (n - 1))
    with pytest.raises(TypeError):
        sandpile.recurrent_rep(graph, [2.7] * n)
    with pytest.raises(TypeError):
        group.lattice_data(graph).solve([Fraction(1, 2)] * n)
    with pytest.raises(TypeError):
        group.quotient_invariants(graph, [[1.9] + [0] * (n - 1)])
    with pytest.raises(TypeError):
        group.smith_mod([[2.5]], 10)
    with pytest.raises(TypeError):
        group.smith_mod([[2]], 10.0)
    with pytest.raises(TypeError):
        group.determinant([[2.5]])
    with pytest.raises(TypeError):
        group.scaled_inverse([[2.5, 0], [0, 1.9]])
    with pytest.raises(TypeError):
        group.determinant([[Fraction(5, 2), 0], [0, 1]])
    # Integers of any kind pass, numpy's included, and mean the same.
    assert group.smith_mod([[np.int64(2)]], np.int64(10)).diag == [2]
    assert group.determinant([[np.int64(2), 1], [1, 3]]) == 5
    x = [random.Random(1).randint(-9, 9) for _ in range(n)]
    as_numpy = list(np.array(x, dtype=np.int64))
    assert group.quotient_invariants(graph, [as_numpy]) == group.quotient_invariants(graph, [x])
    assert group.lattice_reduce(graph, as_numpy) == group.lattice_reduce(graph, x)
    assert sandpile.recurrent_rep(graph, as_numpy) == sandpile.recurrent_rep(graph, x)
    assert group.in_lattice(graph, as_numpy) == group.in_lattice(graph, x)
    assert group.in_lattice(graph, [True] * n) == group.in_lattice(graph, [1] * n)


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
@pytest.mark.parametrize("level", [0, 4, 6, 8])
def test_lattice_reduce_equals_the_per_vertex_reduction(level, boundary):
    """`lattice_reduce` against the per-vertex loop it ran before it read
    `gasket.laplacian_product`, on entries up to 3 and up to 10**40."""
    graph = build_gasket(level, boundary)
    rng = random.Random(f"reduce:{level}:{boundary.token()}")
    for span in (3, 10**40):
        x = [rng.randint(-span, span) for _ in range(graph.n_vertices)]
        y, den = group.lattice_data(graph).solve(x)
        q = [v // den for v in y]
        want = [
            x[v] - graph.degrees[v] * q[v] + sum(q[w] for w in nbrs)
            for v, nbrs in enumerate(graph.neighbors)
        ]
        got = group.lattice_reduce(graph, x)
        assert got == want and all(type(v) is int for v in got)
        assert all(1 - len(nbrs) <= v < d for v, d, nbrs in zip(got, graph.degrees, graph.neighbors))


def recurrent_kicker(graph):
    """The vector 2m - stab(2m), m the maximal stable configuration: it is
    >= m pointwise and lies in the Laplacian lattice, so adding it to a
    non-negative vector and stabilizing lands on the recurrent
    representative of the same class."""
    m = [d - 1 for d in graph.degrees]
    doubled = [2 * v for v in m]
    sandpile._stabilize_raw(graph, doubled)
    return [2 * mv - sv for mv, sv in zip(m, doubled)]


class AdjugateReference:
    """The dense adjugate paths that the sparse solves replaced, and the
    recurrent representative by reduction, a uniform positive lift and the
    kicker.  The adjugate is built on first use, so the representative of a
    vector that needs neither reduction nor lift runs at any level."""

    def __init__(self, graph):
        self.graph = graph

    @functools.cached_property
    def adjugate(self):
        return group.scaled_inverse(reduced_laplacian(self.graph))

    @property
    def adj(self):
        return self.adjugate[0]

    @property
    def det(self):
        return self.adjugate[1]

    def in_lattice(self, x):
        return all(v % self.det == 0 for v in mat_vec(self.adj, x))

    def element_order(self, x):
        return math.lcm(*(self.det // math.gcd(self.det, v) for v in mat_vec(self.adj, x)))

    def lift(self):
        raw = [sum(row) for row in self.adj]
        g = math.gcd(self.det, *raw)
        return [v // g for v in raw], self.det // g

    def reduce(self, x):
        graph = self.graph
        y = [v // self.det for v in mat_vec(self.adj, x)]
        return [
            x[v] - graph.degrees[v] * y[v] + sum(y[w] for w in nbrs)
            for v, nbrs in enumerate(graph.neighbors)
        ]

    def recurrent_rep(self, x):
        graph = self.graph
        if any(abs(v) >= 2 * d for v, d in zip(x, graph.degrees)):
            x = self.reduce(x)
        low = min(x)
        if low < 0:
            _, scale = self.lift()
            k = (-low + scale - 1) // scale
            x = [c + k * scale for c in x]
        chips = [c + kick for c, kick in zip(x, recurrent_kicker(graph))]
        sandpile._stabilize_raw(graph, chips)
        return sandpile.Configuration(graph, tuple(chips))


@pytest.mark.parametrize("level", range(4))
def test_lattice_queries_equal_the_adjugate_reference(level):
    rng = random.Random(50 + level)
    for boundary in (NORMAL, corner_sink(CORNER_NAMES[level % 3])):
        graph = build_gasket(level, boundary)
        ref = AdjugateReference(graph)
        n = graph.n_vertices
        lap = reduced_laplacian(graph)
        vectors = list(random_vectors(rng, n))
        vectors += [[lap[i][v] * rng.randint(-9, 9) for i in range(n)] for v in range(min(n, 5))]
        vectors += [[ref.det // 2 * c for c in vectors[2]], [ref.det * c for c in vectors[3]]]
        for x in vectors:
            assert group.in_lattice(graph, x) == ref.in_lattice(x)
            assert element_order(graph, x) == ref.element_order(x)
            reduced = group.lattice_reduce(graph, x)
            assert reduced == ref.reduce(x)
            y, den = group.lattice_data(graph).solve(reduced)
            assert all(0 <= v < den for v in y)
            for r, d, nbrs in zip(reduced, graph.degrees, graph.neighbors):
                assert 1 - len(nbrs) <= r <= d - 1
            assert sandpile.recurrent_rep(graph, x) == ref.recurrent_rep(x)


@pytest.mark.parametrize("level", (4, 5, 6))
def test_corner_sink_identities_equal_the_kicker_reference(level):
    graph = build_gasket(level, corner_sink(CORNER_NAMES[level % 3]))
    ref = AdjugateReference(graph).recurrent_rep([0] * graph.n_vertices)
    assert sandpile.identity(graph) == ref


# ---------------------------------------------------------------------------
# Sandpile group structure.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "level,factors",
    [
        (0, [5, 10]),
        (1, [38, 38]),
        (2, [2, 2, 6, 462, 2310]),
        (3, LEVEL3_FACTORS),
        (4, LEVEL4_FACTORS),
    ],
)
def test_group_invariant_factors(level, factors):
    assert group.sandpile_group_invariants(build_gasket(level)) == factors


@pytest.mark.parametrize("level,order", [(0, 50), (1, 1444), (2, 25_613_280)])
def test_group_orders(level, order):
    graph = build_gasket(level)
    assert group.sandpile_group_order(graph) == order
    assert math.prod(group.sandpile_group_invariants(graph)) == order


def test_lattice_data_round_trips_coordinates():
    rng = random.Random(8)
    for level in (0, 1, 2, 3):
        data = group.lattice_data(build_gasket(level))
        assert math.prod(data.basis.diag) == data.order
        for _ in range(20):
            coords = [rng.randrange(d) for _, d in data.cyclic]
            full = [0] * len(data.basis.diag)  # U @ c with c on the cyclic summands
            for (i, _), c in zip(data.cyclic, coords):
                full[i] = c
            vec = mat_vec(data.U, full)
            assert smith_coordinates(data, vec) == coords


def test_lattice_data_takes_the_basis_from_one_checked_transforms_run(monkeypatch):
    real = group.smith_mod
    calls = []

    def counting(matrix, modulus, transforms=False):
        calls.append(transforms)
        return real(matrix, modulus, transforms=transforms)

    graph = build_gasket(2)
    cached = group.lattice_data(graph)
    monkeypatch.setattr(group, "smith_mod", counting)
    # A copy of the cached lattice, with no Smith data computed yet.
    data = dataclasses.replace(cached)
    assert mat_mul(data.U, data.Uinv) == group.mat_identity(graph.n_vertices)
    assert data.U is data.basis.U and data.Uinv is data.basis.Uinv
    assert calls == [True]
    # The invariant factors are the quotient by nothing, from the local Smith
    # forms: no further smith_mod run, and the same summands as the basis.
    assert data.invariants == tuple(d for _, d in data.cyclic)
    assert calls == [True]

    def wrong_diagonal(matrix, modulus, transforms=False):
        dec = real(matrix, modulus, transforms=transforms)
        dec.diag[-1] *= 2
        return dec

    monkeypatch.setattr(group, "smith_mod", wrong_diagonal)
    with pytest.raises(ArithmeticError):
        dataclasses.replace(cached).U

    local = group._local_smith

    def extra_factor(matrix, stages, p, rounds):
        exponents, left = local(matrix, stages, p, rounds)
        return exponents + [1], left

    monkeypatch.setattr(group, "_local_smith", extra_factor)
    with pytest.raises(ArithmeticError):
        dataclasses.replace(cached).invariants


# ---------------------------------------------------------------------------
# Local Smith forms against smith_mod and the closed form.
# ---------------------------------------------------------------------------


def smith_reference(graph, generators):
    """The quotient's invariant factors by `smith_mod` of [Delta | g1 ...]
    modulo the order: the reference for the local Smith forms."""
    delta = reduced_laplacian(graph)
    augmented = [row + [g[i] for g in generators] for i, row in enumerate(delta)]
    return [d for d in group.smith_mod(augmented, group.lattice_data(graph).order).diag if d > 1]


def theorem_generators(level):
    """The generators of both sides of `check_group_theorem`: the parent's
    six junction classes and the child's three corner pairs."""
    parent, child = build_gasket(level), build_gasket(level - 1)
    x, y, z = (child.corner_index(name) for name in CORNER_NAMES)
    pairs = [[group.delta_vector(child, i), group.delta_vector(child, j)] for i, j in ((x, y), (y, z), (z, x))]
    junctions = [group._junction_copy_vector(parent, side, copy) for side, copy in group._PRIMARY_ASSIGNMENT]
    junctions += [group.delta_vector(parent, parent.junction_index(side)) for side in ("left", "right", "bottom")]
    return [(parent, junctions)] + [(child, pair) for pair in pairs]


def closed_form_invariants(level):
    """G_n = (Z/2)^((3^n+1)/2) + sum over 1 <= k < n of (Z/3^k)^(3^(n-k))
    and (Z/5^k)^(3^(n-1-k)), + (Z/N)^2 with N = 2 * 5^n + 3^(n+1), n >= 1,
    as a divisibility chain."""
    big = 2 * 5**level + 3 ** (level + 1)
    cyclic = [2] * ((3**level + 1) // 2) + [big, big]
    for k in range(1, level):
        cyclic += [3**k] * 3 ** (level - k) + [5**k] * 3 ** (level - 1 - k)
    return group.direct_sum_invariants([cyclic])


def closed_form_corner_sink_invariants(level):
    """G^cs_n = (Z/2)^((3^n-1)/2) + sum over 1 <= k < n of (Z/3^k)^(3^(n-k))
    and (Z/5^k)^(3^(n-1-k)), + Z/3^n + Z/3^(n+1), n >= 1, as a divisibility
    chain: a conjecture, checked by computation, for the critical group of
    the bare gasket (by sink independence, Biggs 1999, any corner sink)."""
    cyclic = [2] * ((3**level - 1) // 2) + [3**level, 3 ** (level + 1)]
    for k in range(1, level):
        cyclic += [3**k] * 3 ** (level - k) + [5**k] * 3 ** (level - 1 - k)
    return group.direct_sum_invariants([cyclic])


@pytest.mark.parametrize("level", range(1, 10))
def test_corner_sink_invariant_factors_follow_the_closed_form(level):
    expected = closed_form_corner_sink_invariants(level)
    assert math.prod(expected) == group.tau_recursion(level)
    for corner in CORNER_NAMES:
        assert list(group.lattice_data(build_gasket(level, corner_sink(corner))).invariants) == expected


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_local_factors_equal_smith_mod(level, boundary):
    graph = build_gasket(level, boundary)
    factors = group.sandpile_group_invariants(graph)
    assert factors == smith_reference(graph, [])
    assert math.prod(factors) == group.sandpile_group_order(graph)


@pytest.mark.parametrize("level", range(5))
def test_local_quotients_equal_smith_mod(level):
    rng = random.Random(20 + level)
    cases = theorem_generators(level) if level else []
    for boundary in BOUNDARIES:
        graph = build_gasket(level, boundary)
        n = graph.n_vertices
        for count in (1, 2, 3):
            cases.append((graph, [[rng.choice((0, 0, 1, -1, 2, 5, 6)) for _ in range(n)] for _ in range(count)]))
        cases.append((graph, [[5 * rng.randrange(-2, 3) for _ in range(n)]]))
    for graph, generators in cases:
        assert group.quotient_invariants(graph, generators) == smith_reference(graph, generators)


def test_level5_theorem_quotients_equal_smith_mod():
    # The theorem's own quotients only: the parent's junction classes and
    # one corner pair of the child; the other two pairs are its rotations.
    # The reference is 366 x 372 modulo the order.
    for graph, generators in theorem_generators(5)[:2]:
        assert group.quotient_invariants(graph, generators) == smith_reference(graph, generators)


def record_pivot_loops(monkeypatch):
    """Per `_local_smith` run, per stage, the set of cells of each call of
    the pivot loop at that stage."""
    runs = []
    local, loop = group._local_smith, localsmith._pivot_loop

    def recording_local(matrix, stages, p, rounds):
        runs.append([[] for _ in stages])
        recording_local.stages = stages
        return local(matrix, stages, p, rounds)

    def recording_loop(rows, cols, cell, live, p, rounds):
        k = next(k for k, stage in enumerate(recording_local.stages) if stage.cell is cell)
        runs[-1][k].append({cell[i] for i in live})
        return loop(rows, cols, cell, live, p, rounds)

    monkeypatch.setattr(group, "_local_smith", recording_local)
    monkeypatch.setattr(localsmith, "_pivot_loop", recording_loop)
    return runs


def test_each_stage_eliminates_one_cell_of_the_translates(monkeypatch):
    # With no generators every level-k cell of the normal boundary is a
    # translate of the others: each stage runs the pivot loop on one of
    # them, the last on the whole gasket, once per prime run.
    graph = build_gasket(4)
    runs = record_pivot_loops(monkeypatch)
    assert group.quotient_invariants(graph, []) == LEVEL4_FACTORS
    assert len(runs) == len(group.lattice_data(graph).powers)
    for stages in runs:
        assert [[len(cells) for cells in calls] for calls in stages] == [[1]] * 5


def test_generators_keep_their_cells_out_of_the_class(monkeypatch):
    # A generator on one level-0 cell's midpoints makes that cell and the
    # cells above it run on their own, beside the representative.
    graph = build_gasket(4)
    mids, _, _ = cell_index(graph)
    generator = [0] * graph.n_vertices
    generator[int(mids[0][13, 1])] = 2
    runs = record_pivot_loops(monkeypatch)
    assert group.quotient_invariants(graph, [generator]) == smith_reference(graph, [generator])
    for stages in runs:
        assert [sorted(len(cells) for cells in calls) for calls in stages] == [[1, 1]] * 3 + [[1]] * 2
        assert [13, 4, 1] == [next(iter(calls[-1])) for calls in stages[:3]]


def test_a_generator_column_lies_in_the_least_cell_of_its_entries():
    # Entries on one level-0 cell's midpoints put the column in that cell
    # and the cells above it; entries in two level-0 cells of one level-1
    # cell put it in that level-1 cell; an entry on a big corner leaves it
    # to the last stage.
    graph = build_gasket(3)
    n = graph.n_vertices
    mids, _, big = cell_index(graph)
    one, two, wide = ([0] * n for _ in range(3))
    one[int(mids[0][4, 0])] = one[int(mids[0][4, 2])] = 1
    two[int(mids[0][3, 1])] = two[int(mids[0][5, 0])] = 1
    wide[int(mids[0][4, 0])] = wide[big[0]] = 1
    rank = group.lattice_data(graph).position[:n].tolist()
    _, stages = localsmith._nested_rows(graph, [one, two, wide], rank)
    assert [stage.cell[n : n + 3] for stage in stages] == [[4, -1, -1], [1, 1, -1], [0, 0, -1], [0, 0, 0]]

def test_a_quotient_builds_its_replay_plan_once(monkeypatch):
    # Every prime and every K retry replays through the one plan that
    # `_nested_rows` built: the corner-sink group runs p = 3 twice.
    graph = build_gasket(3, corner_sink(TOP))
    plans, runs = [], []
    plan, local = localsmith._replay_plan, group._local_smith

    def counting_plan(table):
        plans.append(table)
        return plan(table)

    def recording(matrix, stages, p, rounds):
        runs.append(stages)
        return local(matrix, stages, p, rounds)

    monkeypatch.setattr(localsmith, "_replay_plan", counting_plan)
    monkeypatch.setattr(group, "_local_smith", recording)
    assert group.quotient_invariants(graph, []) == closed_form_corner_sink_invariants(3)
    assert len(runs) == len(group.lattice_data(graph).powers) + 1
    assert all(stages is runs[0] for stages in runs)
    assert len(plans) == sum(1 for stage in runs[0] if stage.alike) == 2


def pivot_loop_lines(args):
    """Lines run in the frames of `localsmith` during one pivot loop on a
    copy of its arguments: a deterministic count of work."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == localsmith.__file__ else None)
    try:
        localsmith._pivot_loop(*copy.deepcopy(args))
    finally:
        sys.settrace(previous)
    return count


def test_level0_representative_pivot_loop_work(monkeypatch):
    # The first pivot loop of each prime at level 4 is the level-0
    # representative's: three midpoint rows.  Its Markowitz passes end at
    # the first that skips no dearer candidate, so each round takes three
    # passes (caps 4 and 16, then one uncapped); all four capped passes and
    # an uncapped one per round took 422 to 605 lines on the same rows.
    graph = build_gasket(4)
    first = {}
    loop = localsmith._pivot_loop

    def recording(rows, cols, cell, live, p, rounds):
        first.setdefault(p, copy.deepcopy((rows, cols, cell, live, p, rounds)))
        return loop(rows, cols, cell, live, p, rounds)

    monkeypatch.setattr(localsmith, "_pivot_loop", recording)
    assert group.quotient_invariants(graph, []) == LEVEL4_FACTORS
    monkeypatch.setattr(localsmith, "_pivot_loop", loop)
    assert all(len(args[3]) == 3 for args in first.values())
    assert {p: pivot_loop_lines(args) for p, args in first.items()} == {2: 584, 3: 514, 5: 326, 1493: 511}


def test_replay_refuses_a_row_that_leaves_its_cell():
    # A level-0 representative's midpoint wired to a midpoint of a cell that
    # runs on its own (a generator sits on it): its surviving rows reach a
    # column outside the representative's vertex table.
    graph = build_gasket(3)
    mids, _, _ = cell_index(graph)
    a, mate, b = (int(v) for v in (mids[0][0, 0], mids[0][0, 1], mids[0][5, 0]))
    table = graph.table.copy()
    table[table[:, a] == mate, a] = b
    bad = dataclasses.replace(graph, table=table)
    with pytest.raises(ArithmeticError, match="leaves its cell's vertex table"):
        group.quotient_invariants(bad, [group.delta_vector(bad, b)])

def cell_generators(graph, rng):
    """Two generator sets: random entries on the midpoints of one level-0
    cell, and one random midpoint entry in one cell of every level."""
    mids, _, _ = cell_index(graph)
    deep = [0] * graph.n_vertices
    for v in mids[0][rng.randrange(len(mids[0]))]:
        deep[int(v)] = rng.choice((1, 2, 3, 5, -4))
    spread = [0] * graph.n_vertices
    for cells in mids:
        spread[int(cells[rng.randrange(len(cells)), rng.randrange(3)])] = rng.choice((1, 2, 5, 10))
    return [[deep], [deep, [rng.choice((0, 0, 0, 1, 2)) * x for x in deep]], [spread]]


@pytest.mark.parametrize("level", range(2, 5))
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_quotients_by_generators_in_single_cells_equal_smith_mod(level, boundary):
    graph = build_gasket(level, boundary)
    for generators in cell_generators(graph, random.Random(level)):
        assert group.quotient_invariants(graph, generators) == smith_reference(graph, generators)


@pytest.mark.parametrize("level", range(1, 10))
def test_invariant_factors_follow_the_closed_form(level):
    assert group.sandpile_group_invariants(build_gasket(level)) == closed_form_invariants(level)


@pytest.mark.parametrize("level", range(10))
@pytest.mark.parametrize("corner", CORNER_NAMES)
def test_corner_sink_order_equals_the_tree_count_recursion(level, corner):
    # Matrix-tree: a corner-sink group order counts the bare gasket's
    # spanning trees, which the product recursion gives without the factor.
    assert group.lattice_data(build_gasket(level, corner_sink(corner))).order == group.tau_recursion(level)


@pytest.mark.parametrize("level", range(1, 10))
def test_order_equals_the_closed_form_product(level):
    assert group.lattice_data(build_gasket(level)).order == math.prod(closed_form_invariants(level))


def recorded_dets(monkeypatch, graph):
    """The (det, count) pairs that `lattice_data` hands `_prime_powers`,
    from a fresh construction that bypasses the cache."""
    calls = []
    real = group._prime_powers

    def recording(level, dets):
        calls.append(list(dets))
        return real(level, dets)

    with monkeypatch.context() as patch:
        patch.setattr(group, "_prime_powers", recording)
        group.lattice_data.__wrapped__(graph)
    return calls[0]


def test_prime_powers_refuse_a_stray_prime(monkeypatch):
    dets = {level: recorded_dets(monkeypatch, build_gasket(level)) for level in (0, 1, 8)}
    assert group._prime_powers(0, dets[0]) == {2: 1, 5: 2}
    assert group._prime_powers(1, dets[1]) == {2: 2, 19: 2}
    assert set(group._prime_powers(8, dets[8])) == {2, 3, 5, 7, 114_419}
    *blocks, (top, count) = dets[1]
    for stray in (7, 11 * 13, 1_000_003):
        # A top block whose determinant has a factor outside 2, 3, 5 and N,
        # on its numerator and on its denominator.
        for changed in (top * stray, top / stray):
            with pytest.raises(ArithmeticError, match="factor outside"):
                group._prime_powers(1, [*blocks, (changed, count)])
    *blocks8, (top8, count8) = dets[8]
    with pytest.raises(ArithmeticError, match="factor outside"):
        group._prime_powers(8, [*blocks8, (top8 * 11, count8)])
    # Only primes of the order, but a negative exponent: not an integer.
    with pytest.raises(ArithmeticError, match="positive integer"):
        group._prime_powers(1, [*blocks, (top / 2**3, count)])
    # The same refusal from construction, with every block determinant off.
    real = group._inverse

    def off_by_seven(matrix):
        inverse, det = real(matrix)
        return inverse, det * 7

    monkeypatch.setattr(group, "_inverse", off_by_seven)
    with pytest.raises(ArithmeticError, match="factor outside"):
        group.lattice_data.__wrapped__(build_gasket(1))


@pytest.mark.parametrize("boundary", (NORMAL, corner_sink(TOP)), ids=lambda b: b.token())
def test_solves_and_certificates_never_build_the_order(boundary):
    # The order is multiplied out on first use: the solve, the lattice
    # checks, the identity and the self-similarity checks never need it,
    # while the Smith data check against it.
    level = 5
    graph = build_gasket(level, boundary)
    group.lattice_data.cache_clear()
    n = graph.n_vertices
    x = [random.Random(5).randint(-9, 9) for _ in range(n)]
    group.lattice_data(graph).solve(x)
    group.in_lattice(graph, x)
    group.lattice_reduce(graph, x)
    identity = sandpile.identity(graph)
    touched = [graph]
    if boundary.kind == "normal":
        assert selfsim.verify_junction_invariance(level, identity).passed
        touched.append(build_gasket(level + 1))
    else:
        assert selfsim.verify_corner_transport(level, corner=boundary.corner).passed
    for g in touched:
        assert "order" not in group.lattice_data(g).__dict__
    data = group.lattice_data(graph)
    data.invariants
    assert "order" in data.__dict__
    # The basis is dense: a fresh level-2 lattice keeps it quick.
    small = dataclasses.replace(group.lattice_data(build_gasket(2, boundary)))
    small.basis
    assert "order" in small.__dict__


@pytest.mark.parametrize("corner", CORNER_NAMES)
def test_a_factor_beyond_the_first_rounds_is_run_again(monkeypatch, corner):
    # A corner-sink group has a factor 3^(n+1), one more than the first
    # K = n + 1 rounds can tell apart from 0, so p = 3 runs again.
    graph = build_gasket(3, corner_sink(corner))
    local = group._local_smith
    runs = []

    def recording(matrix, stages, p, rounds):
        exponents, left = local(matrix, stages, p, rounds)
        runs.append((p, rounds, left))
        return exponents, left

    monkeypatch.setattr(group, "_local_smith", recording)
    factors = group.quotient_invariants(graph, [])
    threes = [(rounds, left) for p, rounds, left in runs if p == 3]
    assert threes[0] == (4, 1) and len(threes) == 2
    assert threes[1][0] > 4 and threes[1][1] == 0
    assert factors[-1] % 3**4 == 0
    assert factors == smith_reference(graph, [])


def test_in_lattice_accepts_laplacian_columns():
    for level in (0, 1, 2):
        graph = build_gasket(level)
        lap = reduced_laplacian(graph)
        n = graph.n_vertices
        for v in range(n):
            assert group.in_lattice(graph, [lap[i][v] for i in range(n)])
        assert group.in_lattice(graph, [0] * n)
        assert not group.in_lattice(graph, group.delta_vector(graph, 0))


def lattice_members(graph, rng):
    """Random integer combinations of the Laplacian's columns, small and
    large, and the identity configuration."""
    n = graph.n_vertices
    for span in (1, 9, 10**6):
        yield laplacian_product(graph, [rng.randint(-span, span) for _ in range(n)]).tolist()
    yield list(sandpile.identity(graph).chips)


def refuse_the_exact_solve(self, entries):
    raise LookupError("the exact solve was called")


@pytest.mark.parametrize("level", range(7))
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.token())
def test_in_lattice_equals_the_exact_solve(level, boundary, monkeypatch):
    """The certified membership agrees with the rational solve on members,
    the certificate vectors, delta vectors, members plus one chip and
    entries of 2**70, refuses what the solve refuses, and certifies every
    member by its float guess alone."""
    graph = build_gasket(level, boundary)
    n = graph.n_vertices
    data = group.lattice_data(graph)
    rng = random.Random(f"member:{level}:{boundary.token()}")
    members = list(lattice_members(graph, rng))
    vectors = members + list(certificate_vectors(graph))
    vectors += [group.delta_vector(graph, v) for v in rng.sample(range(n), min(n, 3))]
    for x in members:
        chip = rng.randrange(n)
        vectors.append([c + (v == chip) for v, c in enumerate(x)])
    vectors += [[2**70 * c for c in x] for x in (members[0], group.delta_vector(graph, 0))]
    for x in vectors:
        assert group.in_lattice(graph, x) == (data.solve(x)[1] == 1)
    monkeypatch.setattr(group.LatticeData, "solve", refuse_the_exact_solve)
    assert all(group.in_lattice(graph, x) for x in members)
    with pytest.raises(TypeError):
        group.in_lattice(graph, members[0][:-1] + [float(members[0][-1])])
    for length in (n - 1, n + 1):
        with pytest.raises(ValueError):
            group.in_lattice(graph, [0] * length)


def test_in_lattice_certifies_members_without_the_exact_solve(monkeypatch):
    graph = build_gasket(5)
    member = list(sandpile.identity(graph).chips)
    combination = laplacian_product(graph, [random.Random(3).randint(-9, 9) for _ in member]).tolist()
    monkeypatch.setattr(group.LatticeData, "solve", refuse_the_exact_solve)
    assert group.in_lattice(graph, member) and group.in_lattice(graph, combination)
    # A non-member, and entries of 2**70, take the exact solve.
    for x in (group.delta_vector(graph, 0), [2**70 * c for c in member]):
        with pytest.raises(LookupError, match="exact solve was called"):
            group.in_lattice(graph, x)


def test_in_lattice_never_trusts_a_wrong_guess(monkeypatch):
    """However wrong the float guess, True needs Delta @ y == x in
    integers: a guess that fails the check, or is far from integers, falls
    back to the exact solve, whose verdict stands."""
    graph = build_gasket(4, corner_sink(TOP))
    n = graph.n_vertices
    member = list(sandpile.identity(graph).chips)
    near_member = [c + (v == 0) for v, c in enumerate(member)]
    guesses = [np.zeros(n), np.full(n, 0.5), np.full(n, np.nan), np.full(n, 2.0**50)]
    for guess in guesses:
        monkeypatch.setattr(group.LatticeData, "approximate", lambda self, x: guess)
        assert group.in_lattice(graph, member)
        assert not group.in_lattice(graph, near_member)
    # The true solution of a non-member's neighbour is refused too.
    y, den = group.lattice_data(graph).solve(member)
    monkeypatch.setattr(group.LatticeData, "approximate", lambda self, x: np.array(y, dtype=float) / den)
    assert not group.in_lattice(graph, near_member)


@pytest.mark.parametrize("level", range(8))
def test_approximate_agrees_with_the_exact_solve(level):
    """The float sweep of `approximate` and the exact sweep of `solve` run
    one plan: on members and non-members, delta vectors and entries up to
    2**30, the float answer is y / D up to 1e-9 of the largest entry."""
    for b, boundary in enumerate(BOUNDARIES):
        graph = build_gasket(level, boundary)
        n = graph.n_vertices
        data = group.lattice_data(graph)
        rng = random.Random(100 * level + b)
        vectors = [
            [rng.randint(-9, 9) for _ in range(n)],
            [rng.randint(-(2**30), 2**30) for _ in range(n)],
            laplacian_product(graph, [rng.randint(-9, 9) for _ in range(n)]).tolist(),
            group.delta_vector(graph, 0),
            group.delta_vector(graph, rng.randrange(n)),
            group.delta_vector(graph, n - 1),
        ]
        for x in vectors:
            y, den = data.solve(x)
            exact = np.array([v / den for v in y])
            approx = data.approximate(np.array(x, dtype=np.int64))
            assert approx.dtype == np.float64 and approx.shape == (n,)
            assert np.abs(approx - exact).max() <= 1e-9 * (1 + np.abs(exact).max())


def test_quotient_invariants_never_builds_the_neighbour_view():
    """The factor and the local Smith rows read the neighbour table: a fresh
    graph, not the interned one, gets the same invariants and never
    materializes its `neighbors` tuples."""
    fresh = gasket._build_gasket.__wrapped__(5, NORMAL)
    assert fresh is not build_gasket(5)
    assert group.quotient_invariants(fresh, []) == group.quotient_invariants(build_gasket(5), [])
    assert "neighbors" not in vars(fresh)
    level0 = gasket._build_gasket.__wrapped__(0, corner_sink(TOP))
    assert group.quotient_invariants(level0, []) == group.quotient_invariants(build_gasket(0, corner_sink(TOP)), [])
    assert "neighbors" not in vars(level0)


def test_element_orders_on_level0():
    graph = build_gasket(0)
    orders = [element_order(graph, group.delta_vector(graph, v)) for v in range(3)]
    assert all(group.sandpile_group_order(graph) % o == 0 for o in orders)
    assert math.lcm(*orders) == 10  # the group exponent of Z5 + Z10
    lap = reduced_laplacian(graph)
    assert element_order(graph, [lap[i][0] for i in range(3)]) == 1


def test_element_order_is_the_minimal_multiplier():
    graph = build_gasket(1)
    rng = random.Random(9)
    for _ in range(10):
        vec = [rng.randrange(-5, 6) for _ in range(6)]
        k = element_order(graph, vec)
        assert group.in_lattice(graph, [k * v for v in vec])
        for p in {p for p in (2, 19) if k % p == 0}:
            assert not group.in_lattice(graph, [(k // p) * v for v in vec])


def test_quotient_by_nothing_is_the_full_group():
    graph = build_gasket(1)
    assert group.quotient_invariants(graph, []) == [38, 38]


def test_quotient_by_one_generator_divides_out_its_order():
    rng = random.Random(10)
    for level in (0, 1):
        graph = build_gasket(level)
        order = group.sandpile_group_order(graph)
        for _ in range(5):
            vec = [rng.randrange(-4, 5) for _ in range(graph.n_vertices)]
            assert math.prod(group.quotient_invariants(graph, [vec])) * element_order(graph, vec) == order


def test_quotient_by_the_standard_basis_is_trivial():
    graph = build_gasket(0)
    gens = [group.delta_vector(graph, v) for v in range(3)]
    assert group.quotient_invariants(graph, gens) == []
    assert math.prod(group.quotient_invariants(graph, gens)) == 1


def test_direct_sum_invariants():
    assert group.direct_sum_invariants([[2, 4], [6]]) == [2, 2, 12]
    assert group.direct_sum_invariants([[5, 10], [2]]) == [10, 10]
    assert group.direct_sum_invariants([[], []]) == []
    lists = [[5, 10], [38, 38], [2, 2, 6]]
    combined = group.direct_sum_invariants(lists)
    assert math.prod(combined) == math.prod(math.prod(fs) for fs in lists)
    for a, b in zip(combined, combined[1:]):
        assert b % a == 0


@pytest.mark.parametrize(
    "level,factors",
    [
        (1, []),
        (2, [2, 2, 2]),
        (3, [2, 2, 2, 6, 6, 6, 6, 6, 6, 30, 30, 30]),
        (4, [2] * 3 + [6] * 24 + [30] * 3 + [90] * 6 + [450] * 3),
    ],
)
def test_three_copy_quotient_matches_junction_pair_sum(level, factors):
    report = group.check_group_theorem(level)
    assert report.passed
    assert report.convention == "primary"
    assert report.lhs_factors == report.rhs_factors == factors
    assert report.lhs_order == report.rhs_order


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_flipped_junction_assignment_gives_the_same_quotient(level):
    # The symmetry that lets the theorem check try one assignment only.
    graph = build_gasket(level)
    junctions = [
        group.delta_vector(graph, graph.junction_index(side)) for side in ("left", "right", "bottom")
    ]
    primary, flipped = (
        group.quotient_invariants(
            graph, [group._junction_copy_vector(graph, side, copy) for side, copy in assignment] + junctions
        )
        for assignment in (group._PRIMARY_ASSIGNMENT, FLIPPED_ASSIGNMENT)
    )
    assert primary == flipped


@pytest.mark.parametrize("level", range(1, 7))
def test_the_three_corner_pair_quotients_agree(level):
    # The symmetry that lets the theorem check compute one child quotient.
    child = build_gasket(level - 1)
    x, y, z = (child.corner_index(name) for name in CORNER_NAMES)
    first, second, third = (
        group.quotient_invariants(child, [group.delta_vector(child, i), group.delta_vector(child, j)])
        for i, j in ((x, y), (y, z), (z, x))
    )
    assert first == second == third


def test_a_failing_group_theorem_computes_its_quotient_once(monkeypatch, capsys):
    real = group.quotient_invariants
    parent_quotients = []

    def broken(graph, generators):
        factors = real(graph, generators)
        if graph.level == 2:
            parent_quotients.append(len(generators))
            factors = factors + [7]
        return factors

    monkeypatch.setattr(group, "quotient_invariants", broken)
    assert cli.main(["group", "check-theorem", "--level", "2"]) == 1
    assert parent_quotients == [6]
    assert "decomposition level 2: FAIL (convention primary)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Spanning tree counts.
# ---------------------------------------------------------------------------


def test_tau_base_values():
    assert [group.tau_recursion(n) for n in range(3)] == [3, 54, 524880]


@pytest.mark.parametrize("level", range(8))
def test_tau_matrix_tree_agrees_with_recursion(level):
    tau = group.tau_recursion(level)
    assert group.tau_matrix_tree(level) == tau
    for name in CORNER_NAMES:
        assert group.sandpile_group_order(build_gasket(level, corner_sink(name))) == tau


@pytest.mark.parametrize("level", range(4))
def test_tau_fourth_power_identity(level):
    assert tau_fourth_power_identity(level)
