"""Multiplicative harmonic functions and walk eigenvalues on gasket graphs.

A multiplicative harmonic function assigns a unit-circle value h(v) to every
vertex (h(sink) = 1) with h(v)**deg(v) equal to the product of h over the
neighbors.  Writing h = exp(2*pi*i*q), harmonicity is the exact integer
congruence deg(v)*q(v) = sum of neighbor q's (mod 1), so everything here is
checked in rational arithmetic: Delta q, from `gasket.laplacian_product`,
must be integral.  The level-1 cells behind the parity characters are the
finest level of `gasket.cell_index`, the layout the Laplacian factorization
eliminates.  These functions are exactly the characters
of the sandpile group, and each one is an eigenfunction of the chip-adding
walk with eigenvalue (1 + sum_v h(v)) / (n_vertices + 1).  `walk_spectrum`
gets them all, and so the walk's exact l2 distance from uniform, from one
Fourier transform of the one-step measure over the Smith torus.  The torus
and the walk's steps on it come from `_smith_shifts`, which
`markov.exact_tv_curve` also reads to evolve the walk's law directly.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gasket import GasketGraph, build_gasket, cell_index, laplacian_product
from . import group

DEFAULT_CHARACTER_CAP = 10**6


class GroupTooLargeError(ValueError):
    """Raised when a group is too large to enumerate or to transform."""

    def __init__(self, order: int, cap: int):
        self.order = order
        self.cap = cap
        # Orders of high levels run to thousands of digits, past Python's
        # default int -> str limit; those are compared with the cap by
        # their size in bits.
        if order < 10**30:
            message = f"group order {order} exceeds the group-order cap {cap}"
        else:
            message = f"group order of {order.bit_length()} bits exceeds the group-order cap of {cap.bit_length()} bits"
        super().__init__(message)


@dataclass(frozen=True)
class HarmonicFunction:
    """Rotation numbers q(v) in [0, 1) over the non-sink vertices; the sink
    carries q = 0 implicitly."""

    graph: GasketGraph
    rotation: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.rotation) != self.graph.n_vertices:
            raise ValueError("rotation vector length must match vertex count")

    def is_harmonic(self) -> bool:
        """Whether Delta q is integral, in exact arithmetic."""
        return all(r.denominator == 1 for r in laplacian_product(self.graph, self.rotation))

    @property
    def is_real(self) -> bool:
        """True when every value is +-1, i.e. all q in {0, 1/2}."""
        return all(q.denominator in (1, 2) for q in self.rotation)

    def values(self) -> list[complex]:
        return [cmath.exp(2j * math.pi * float(q)) for q in self.rotation]


def eigenvalue(h: HarmonicFunction):
    """Walk eigenvalue (1 + sum_v h(v)) / (n + 1).

    Exact Fraction when all values are +-1, complex float otherwise.
    Rejects non-harmonic input.
    """
    if not h.is_harmonic():
        raise ValueError("not a multiplicative harmonic function")
    n = h.graph.n_vertices
    if h.is_real:
        minus = sum(1 for q in h.rotation if q != 0)
        return Fraction(1 + (n - minus) - minus, n + 1)
    total = sum(h.values())
    return (1 + total) / (n + 1)


# ---------------------------------------------------------------------------
# Level-1 cells and the cell-supported harmonic functions.
# ---------------------------------------------------------------------------


def _level1_midpoints(graph: GasketGraph) -> list[list[int]]:
    """The midpoints (bottom, left, right) of each level-1 cell, in the
    depth-first order of `gasket.cell_index`."""
    if graph.level < 1:
        raise ValueError("cells exist for level >= 1")
    return cell_index(graph)[0][0].tolist()


def cell_harmonic(level: int, cell: int) -> HarmonicFunction:
    """The +-1 harmonic function that is -1 exactly on the three midpoints of
    one level-1 cell (cells are 1-indexed in enumeration order)."""
    graph = build_gasket(level)
    cells = _level1_midpoints(graph)
    if not 1 <= cell <= len(cells):
        raise ValueError(f"cell index must be in 1..{len(cells)}")
    half = Fraction(1, 2)
    rotation = [Fraction(0)] * graph.n_vertices
    for v in cells[cell - 1]:
        rotation[v] = half
    return HarmonicFunction(graph, tuple(rotation))


def distinguishing_statistic(graph: GasketGraph, entries) -> float:
    """Average over all level-1 cells of the parity character
    (-1)**(chips on the cell midpoints).  A class function on the group."""
    if graph.boundary.kind != "normal":
        raise ValueError("statistic defined on normally wired gaskets")
    cells = _level1_midpoints(graph)
    odd = sum(1 for p, q, r in cells if (entries[p] + entries[q] + entries[r]) % 2)
    return (len(cells) - 2 * odd) / len(cells)


# ---------------------------------------------------------------------------
# Characters and the walk spectrum through the Smith basis.
# ---------------------------------------------------------------------------


# Characters are built this many at a time: one integer product per block.
_CHARACTER_BLOCK = 1 << 10


def enumerate_characters(
    graph: GasketGraph, cap: int = DEFAULT_CHARACTER_CAP
) -> list[HarmonicFunction]:
    """All |group| multiplicative harmonic functions, trivial one first.

    The rotation vectors are the classes of Delta^{-1} Z^V modulo Z^V.  The
    Laplacian is symmetric, so Delta^{-1} Z^V = Uinv^T D^{-1} Z^V: on the
    Smith torus of `_smith_shifts`, the character with coordinates (m_i)
    rotates vertex v by sum_i m_i * shift_v[i] / d_i mod 1, summed in
    integers over L = lcm(d_i) by `_numerators`.  Refuses with
    GroupTooLargeError when the group order exceeds `cap`.
    """
    dims, shifts = _smith_shifts(graph, cap)
    common = math.lcm(*dims)
    # Fraction(a, L) by numerator a, each made once and shared.
    rotation = functools.cache(functools.partial(Fraction, denominator=common))
    # Every row has one numerator per shift: the rotation length is checked
    # once here, not once per character.
    if len(shifts) != graph.n_vertices:
        raise ValueError("rotation vector length must match vertex count")
    return [_character(graph, tuple(map(rotation, row))) for row in _numerators(dims, shifts, common)]


def _character(graph: GasketGraph, rotation: tuple[Fraction, ...]) -> HarmonicFunction:
    """A `HarmonicFunction` made without its `__post_init__` check, for a
    rotation whose length the caller has checked."""
    h = object.__new__(HarmonicFunction)
    object.__setattr__(h, "graph", graph)
    object.__setattr__(h, "rotation", rotation)
    return h


def _numerators(dims: list[int], shifts: list[tuple[int, ...]], common: int):
    """Each character's rotation numerators over `common`, one list per
    character, the coordinates in C order (that of `itertools.product`).
    A block of 1,024 characters is one integer product, its coordinates
    times the scaled shifts, mod `common`; small blocks keep the peak memory
    at that of the output.  The numerators stay below common * sum(dims):
    in int64 while that is under 2**62, in Python integers (object arrays)
    beyond, which only a raised cap reaches."""
    dtype = np.int64 if common * sum(dims) < 2**62 else object
    scaled = np.array([[s * (common // d) for s, d in zip(shift, dims)] for shift in shifts], dtype=dtype)
    strides = [math.prod(dims[i + 1 :]) for i in range(len(dims))]
    total = math.prod(dims)
    for start in range(0, total, _CHARACTER_BLOCK):
        index = np.arange(start, min(start + _CHARACTER_BLOCK, total), dtype=dtype)
        counts = np.stack([index // stride % d for stride, d in zip(strides, dims)], axis=1)
        yield from (counts @ scaled.T % common).tolist()


@dataclass(frozen=True)
class DistanceResult:
    level: int
    t: int
    group_order: int
    l2: float
    tv_upper: float


def _smith_shifts(graph: GasketGraph, cap: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """The Smith torus Z/d_1 x ... x Z/d_r of the group and the walk's steps
    on it: the Smith coordinates of each vertex delta, column v of Uinv on
    the cyclic summands, reduced modulo their orders.  Refuses with
    GroupTooLargeError above `cap`, before any Smith work."""
    data = group.lattice_data(graph)
    if data.order > cap:
        raise GroupTooLargeError(data.order, cap)
    dims = [d for _, d in data.cyclic] or [1]
    rows = [(data.Uinv[i], d) for i, d in data.cyclic]
    return dims, [tuple(row[v] % d for row, d in rows) for v in range(graph.n_vertices)]


def walk_spectrum(graph: GasketGraph, cap: int = DEFAULT_CHARACTER_CAP) -> np.ndarray:
    """All walk eigenvalues from one transform over the Smith torus: entry m
    of the `numpy.fft.fftn` of the one-step measure (mass 1/(n+1) on 0 and on
    the Smith coordinates of each vertex delta) is the eigenvalue of the
    character x -> exp(-2 pi i sum_i m_i x_i / d_i), entry 0 the trivial one.
    Refuses with GroupTooLargeError above `cap`, before any Smith work."""
    dims, shifts = _smith_shifts(graph, cap)
    counts = np.zeros(dims)
    counts.flat[0] = 1
    for shift in shifts:
        counts[shift] += 1
    return np.fft.fftn(counts / (graph.n_vertices + 1))


def exact_distance(
    graph: GasketGraph, t: int, cap: int = DEFAULT_CHARACTER_CAP
) -> DistanceResult:
    """Exact l2 distance of the walk started at the group identity from
    uniform after t steps, by Plancherel over the nontrivial eigenvalues of
    `walk_spectrum`:

        l2**2 = (1/|G|) * sum |lambda_chi|**(2t)

    `tv_upper` is the Cauchy-Schwarz bound TV <= sqrt(|G|) * l2 / 2
    = (1/2) * sqrt(sum |lambda_chi|**(2t)).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    spectrum = walk_spectrum(graph, cap=cap)
    order = spectrum.size
    l2 = math.sqrt(float(np.sum(np.abs(spectrum.flat[1:]) ** (2 * t))) / order)
    return DistanceResult(
        level=graph.level, t=t, group_order=order, l2=l2, tv_upper=math.sqrt(order) * l2 / 2
    )


def t_star(n_vertices: int) -> int:
    """The spectral upper bound threshold ceil((5/4) (n+1) log(34 n)) for a
    graph with n non-sink vertices."""
    return math.ceil(1.25 * (n_vertices + 1) * math.log(34 * n_vertices))
