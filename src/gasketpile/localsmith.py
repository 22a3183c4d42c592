"""Sparse local Smith forms over Z/p^K of [Delta | g1 | ... | gk] on a
gasket graph, the engine behind `group.quotient_invariants`.

`_nested_rows` lays out the rows of the reduced Laplacian and the
generators in the elimination order of `group.lattice_data`, which it is
given, and plans the stages on the cells of `gasket.cell_index`: stage k
pivots inside the level-k cells, and the last stage is the whole gasket.
`_local_smith` runs them for one prime.  The cells of a stage that carry
no generator entry and no sunk corner are translates of one another: one
of them runs the pivot loop (`_pivot_loop`) and `_replay` moves its result
onto the copies that a coarser stage needs, so a stage costs about one
cell, not 3**(n-1-k).  The maps onto the copies are built once per
quotient (`_replay_plan`), and every prime and every K replays through
them.  All primes of the group take about 4-5 ms at level 5, 0.026-0.038
s at level 8 and 0.08-0.11 s at level 10 on a 2-core VM.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import compress
from typing import NamedTuple

import numpy as np

from .gasket import GasketGraph, cell_index


# Markowitz cost caps (row entries - 1) * (column entries - 1) of the passes
# before the uncapped one: cheap pivots first.
_MARKOWITZ_CAPS = (4, 16, 64, 256)


class _Stage(NamedTuple):
    """One stage of `_local_smith`: the cell of every row and column (-1 for
    none), the nested-dissection rank of every row, and the class of alike
    cells: how many there are (0: no class), the representative's cell,
    corners and corner block, and the replay plan (`_replay_plan`) of its
    copies."""

    cell: list[int]
    rank: list[int]
    alike: int
    first: int
    corners: list[int]
    block: list[tuple[int, int]]
    copies: list[tuple[dict[int, int], list[int], list[tuple[int, int]]]]


def _corner_pairs(corners: list[int]) -> list[tuple[int, int]]:
    """The (row, column) positions of a cell's corner block, row by row."""
    return [(x, y) for x in corners for y in corners]


def _replay_plan(table: list[list[int]]) -> list[tuple[dict[int, int], list[int], list[tuple[int, int]]]]:
    """Per copy of a class, whose vertex table is a row of `table` after the
    representative's (the first): the map of the representative's vertices
    onto the copy's, the copy's corners and its corner block.  Every prime
    and every K of a quotient replays through this one plan."""
    return [(dict(zip(table[0], image)), image[-3:], _corner_pairs(image[-3:])) for image in table[1:]]


def _nested_rows(
    graph: GasketGraph, columns: list[list[int]], rank: list[int]
) -> tuple[dict[int, dict[int, int]], list[_Stage]]:
    """The rows {column: entry} of [Delta | g1 | ... | gk] that `_local_smith`
    starts from, ranked by `rank`, every vertex's position in the
    nested-dissection order of `group.lattice_data` (each level's midpoints
    cell by cell, finest first, then the big corners), and its stages.
    Stage k gives the level-k cell of every row and column: the cell whose
    midpoints, or those of the cells below it, hold the vertex, or -1 for a
    vertex that is no level-k cell's midpoint or below one.  Every vertex is
    in the one cell of the last stage, and so are the generators; a
    generator whose entries all lie in one level-k cell is in it from stage
    k on.

    A level-k cell below the last stage is alike when no generator has an
    entry on its midpoints or below them and none of its corners is sunk:
    its rows are then the Laplacian's, translated.  With two or more alike
    cells they are one class.  Stage by stage from the top, a cell runs the
    pivot loop when it is not alike or is its class's representative, the
    first alike cell below a cell that runs; an alike cell below a cell that
    runs is a copy to replay, and the cells below a copy are never touched.
    A vertex gets a row here only if its own cell runs.  The vertex table of
    a class lists, per cell (the representative first, then its copies),
    the midpoints of its level-0, ..., level-k cells (the cells below a cell
    are listed together, in one order) and its corners, so that equal
    positions are translates; `_replay_plan` turns it into maps."""
    n, level = graph.n_vertices, graph.level
    mids, corners, big = cell_index(graph)
    top = [v for v in big if v != n]
    # Level by level, a vertex's cell is its own cell's index divided by 3
    # per level above it (-1 // 3 stays -1), or its own at its home level.
    cells, cell = [], np.full(n + len(columns), -1, dtype=np.int64)
    for m in mids:
        cell = cell // 3
        cell[m] = np.arange(len(m))[:, None]
        cells.append(cell)
    cells.append(np.zeros_like(cell))
    supports = [np.fromiter(compress(range(n), g), dtype=np.int64) for g in columns]
    # A generator's column lies in a cell that holds all of its entries: its
    # rows and their fill stay in that cell and its corners' rows.
    for k, support in enumerate(supports):
        for cell in cells[:-1]:
            home = cell[support]
            if len(home) and home[0] >= 0 and (home == home[0]).all():
                cell[n + k] = home[0]
    touched = np.unique(np.concatenate([np.empty(0, dtype=np.int64), *supports]))
    classes = [(0, [])]  # per stage, finest first once reversed: the class size and vertex table
    runs = []
    for k in reversed(range(level)):
        count = len(mids[k])
        # The cells below a cell that runs: the last stage's one cell, or
        # the three cells below each cell of stage k + 1 that ran.
        below = np.repeat(runs[-1], 3) if runs else np.ones(count, dtype=bool)
        alike = ~(corners[k] == n).any(axis=1)
        hit = cells[k][touched]
        alike[hit[hit >= 0]] = False
        size, run, table = int(alike.sum()), below, []
        if size > 1:
            members = np.flatnonzero(alike & below)
            run = ~alike
            run[members[0]] = True
            table = np.concatenate([m.reshape(count, -1) for m in mids[: k + 1]] + [corners[k]], axis=1)[members].tolist()
        runs.append(run)
        classes.append((size if size > 1 else 0, table))
    classes.reverse()
    runs.reverse()
    rows = {}
    # Each row from the vertex's column of the neighbour table, which lists
    # the neighbours ascending and then the padding slot n.  A neighbour
    # without a row lies in a copy, and the row is a copy's corner's: the
    # replay writes its entries in the copy's columns, so they are left out.
    running = np.concatenate([cells[run].ravel() for cells, run in zip(mids, runs)] + [np.array(top, dtype=np.intp)])
    near = graph.table[:, running]
    has_row = np.zeros(n + 1, dtype=bool)
    has_row[running] = True
    near[~has_row[near]] = n
    for v, near in zip(running.tolist(), near.T.tolist()):
        row = rows[v] = {v: graph.degrees[v]}
        for w in near:
            if w != n:
                row[w] = row.get(w, 0) - 1
        for k, g in enumerate(columns):
            if g[v]:
                row[n + k] = g[v]
    stages = []
    for cell, (size, table) in zip(cells, classes):
        cell = cell.tolist()
        if size:
            first, corners = cell[table[0][0]], table[0][-3:]
            stages.append(_Stage(cell, rank, size, first, corners, _corner_pairs(corners), _replay_plan(table)))
        else:
            stages.append(_Stage(cell, rank, 0, -1, [], [], []))
    return rows, stages


def _local_smith(matrix: dict[int, dict[int, int]], stages: list[_Stage], p: int, rounds: int) -> tuple[list[int], int]:
    """Smith form over Z/p^rounds of the rows of `_nested_rows`: the
    exponents e >= 1 of its p-power invariant factors below p^rounds, and
    the number of rows that survive every round (factors p^rounds or more).

    Rows are dicts {column: residue}, with a row set per column.  Stage k
    pivots only inside a level-k cell, on a row and a column that both lie
    in it (`_pivot_loop`), so fill never leaves the cell and its three
    corners.  The last stage is the whole gasket.  The local stages matter
    at p = 2 and p = 5, where a cell's rows are divisible by p in
    combination (a level-1 cell's midpoint block has Smith form
    diag(1, 5, 10)): each cell splits off its own factors of p before its
    rows reach the coarser cells, and the rows stay short.

    The alike cells of a stage are one class: the representative runs the
    pivot loop, and `_replay` moves its net effect onto the copies.  By
    induction on the stages every alike cell starts its stage with the
    representative's rows translated, so the moved pivots are valid pivots
    of each copy, and the class's exponents count once per alike cell.
    Every other cell runs the pivot loop on its own."""
    modulus = p**rounds
    rows: dict[int, dict[int, int]] = {}
    cols: defaultdict[int, set[int]] = defaultdict(set)
    for i, entries in matrix.items():
        row = rows[i] = {j: y for j, x in entries.items() if (y := x % modulus)}
        for j in row:
            cols[j].add(i)
    exponents: list[int] = []
    change = None  # the last class's change of its corner block, row by row
    for stage in stages:
        cell = stage.cell
        live = sorted(compress(rows, map((-1).__ne__, map(cell.__getitem__, rows))), key=stage.rank.__getitem__)
        if stage.alike:
            own = [i for i in live if cell[i] == stage.first]
            live = [i for i in live if cell[i] != stage.first]
            found, change = _replay(rows, cols, stage, own, change, p, rounds)
            exponents += found * stage.alike
        if live:
            exponents += _pivot_loop(rows, cols, cell, live, p, rounds)
    return exponents, len(rows)


def _replay(
    rows: dict[int, dict[int, int]],
    cols: dict[int, set[int]],
    stage: _Stage,
    own: list[int],
    below: list[int] | None,
    p: int,
    rounds: int,
) -> tuple[list[int], list[int]]:
    """Run the pivot loop on the representative, whose rows are `own`, and
    replay its net effect on the copies of `stage.copies`, whose rows do not
    exist yet.  Returns the representative's exponents and the class's
    change of its corner block (`_corner_pairs`).

    A copy gets the representative's surviving rows, and its corner rows
    get the representative's corner rows' entries in its columns (they
    start with none there, see `_nested_rows`), all moved through the
    plan's map.  Its corner rows' entries in its corner columns are added
    to, never read, by pivots in it or below it, so the copy adds the
    class's change: this stage's, and at each corner that of the alike cell
    below at that corner (`below`, the last stage's change, whose diagonal
    is that of its corner block).  A surviving row with a column outside
    the representative's table (a graph not wired as its cells) raises
    ArithmeticError."""
    modulus = p**rounds
    cell, first, corners, block = stage.cell, stage.first, stage.corners, stage.block
    before = [rows[x].get(y, 0) for x, y in block]
    if below:
        for s in (0, 4, 8):  # the diagonal
            before[s] -= below[s]
    exponents = _pivot_loop(rows, cols, cell, own, p, rounds)
    change = [(rows[x].get(y, 0) - b) % modulus for (x, y), b in zip(block, before)]
    after = [(i, rows[i].items()) for i in own if i in rows]
    reach = [[(c, v) for c, v in rows[x].items() if cell[c] == first] for x in corners]
    for to, ends, links in stage.copies:
        for tx, reached in zip(ends, reach):
            row = rows[tx]
            for c, v in reached:
                c = to[c]
                row[c] = v
                cols[c].add(tx)
        for (tx, ty), d in zip(links, change):
            if d:
                row = rows[tx]
                if w := (row.get(ty, 0) + d) % modulus:
                    if ty not in row:
                        cols[ty].add(tx)
                    row[ty] = w
                else:
                    del row[ty]
                    cols[ty].discard(tx)
        try:
            for i, new in after:
                ti = to[i]
                row = rows[ti] = {to[c]: v for c, v in new}
                for c in row:
                    cols[c].add(ti)
        except KeyError:
            raise ArithmeticError("a replayed row leaves its cell's vertex table") from None
    return exponents, change


def _pivot_loop(
    rows: dict[int, dict[int, int]], cols: dict[int, set[int]], cell: list[int], live: list[int], p: int, rounds: int
) -> list[int]:
    """One stage's pivots on the rows `live`, each in a cell of `cell`;
    returns the exponents r >= 1 of the pivots.

    A pivot (i, j) of valuation r needs every entry of row i and of column j
    divisible by p^r: it is a unit of the row divided by p^r, and it splits
    off Z/p^r.  Row operations clear its column, and the pivot row and
    column are dropped (column operations clear the row and touch no other).
    It must lie in the row's cell, so it changes that cell's rows and its
    corners' rows only.  The rounds r = 0, 1, ... take the valuation-r
    pivots, rows in nested-dissection order, in one pass per Markowitz cost
    cap while a pass skips a dearer candidate, and then uncapped until none
    is left; a row without one waits for the next stage.  At the last stage
    these are the usual rounds that divide the surviving rows by p.
    Valuations are read off gcd(x, p^rounds), a power of p."""
    modulus = p**rounds
    # gcd(modulus, no entries) is the modulus: no valuation, as for none.
    valuation = {p**e: e for e in range(rounds)} | {modulus: math.inf}
    exponents: list[int] = []
    # A pivot changes the rows and column counts of its own cell only (and
    # of its corners, which lie in no cell of this stage), so a row's best
    # pivot holds until a pivot in its cell bumps the version.
    version: defaultdict[int, int] = defaultdict(int)
    r, active = 0, live
    while active:
        scale, step = p**r, p ** (r + 1)
        seen: dict[int, tuple[int, int, int | None]] = {}
        # One pass per Markowitz cap over the rows whose least valuation is
        # r, while a pass skips a candidate dearer than its cap; then
        # uncapped passes over every live row (pivots may have brought some
        # down to r) until a pass takes nothing.
        caps = iter(_MARKOWITZ_CAPS)
        cap, order = next(caps), active
        while True:
            dearer = taken = False
            for i in order:
                if (row := rows.get(i)) is None:
                    continue
                # The cheapest valuation-r pivot (cost, column j) of row i in
                # its cell.  A live row is divisible by p^r (see the end of
                # the round); the pivot's column must be too.
                home = cell[i]
                hit = seen.get(i)
                if hit is not None and hit[0] == version[home]:
                    _, cost, j = hit
                else:
                    least, j = math.inf, None
                    for c, x in row.items():
                        if x % step and cell[c] == home and (count := len(cols[c])) < least:
                            if r and any(rows[s][c] % scale for s in cols[c]):
                                continue
                            least, j = count, c
                            if count == 1:
                                break
                    cost = (len(row) - 1) * (least - 1)
                    seen[i] = (version[home], cost, j)
                if j is None:
                    continue
                if cost > cap:
                    dearer = True
                    continue
                # Clear column j with row i and drop both.
                taken = True
                version[home] += 1
                del rows[i]
                for c in row:
                    cols[c].discard(i)
                inv = pow(row.pop(j) // scale, -1, modulus)
                terms = [(c, -v * inv % modulus) for c, v in row.items()]
                for t in cols.pop(j):
                    row = rows[t]
                    f = row.pop(j) // scale
                    for c, v in terms:
                        w = row.get(c)
                        if w is None:
                            if w := f * v % modulus:
                                row[c] = w
                                cols[c].add(t)
                        elif w := (w + f * v) % modulus:
                            row[c] = w
                        else:
                            del row[c]
                            cols[c].discard(t)
                if r:
                    exponents.append(r)
            if cap == math.inf:
                if not taken:
                    break
            elif not dearer:
                cap, order = math.inf, live
            elif (cap := next(caps, math.inf)) == math.inf:
                order = live
        # The next round is the least valuation above r that is some live
        # row's least and lies in the row's cell.  A row whose least
        # valuation is lower keeps it through this stage, since every
        # update from now on is divisible by p^r: it waits for the next.
        lows = {i: valuation[math.gcd(modulus, *row.values())] for i in live if (row := rows.get(i)) is not None}
        after = rounds
        for i, low in lows.items():
            if r < low < after:
                home = cell[i]
                if valuation[math.gcd(modulus, *(x for j, x in rows[i].items() if cell[j] == home))] == low:
                    after = low
        r = after
        live = [i for i, low in lows.items() if low >= r]
        active = [i for i in live if lows[i] == r]
    return exponents
