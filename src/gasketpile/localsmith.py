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
cell, not 3**(n-1-k).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from .gasket import GasketGraph, cell_index


def _valuation(x: int, p: int) -> int:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


# Markowitz cost caps (row entries - 1) * (column entries - 1) of the passes
# before the uncapped one: cheap pivots first.
_MARKOWITZ_CAPS = (4, 16, 64, 256)


class _Stage(NamedTuple):
    """One stage of `_local_smith`: the cell of every row and column (-1 for
    none), the nested-dissection rank of every row, and the class of alike
    cells: how many there are, and the vertex table of the representative
    (first) and of the copies to replay, in one order (no rows: no class)."""

    cell: list[int]
    rank: list[int]
    alike: int
    table: np.ndarray


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
    in the one cell of the last stage, and so are the generators.

    A level-k cell below the last stage is alike when no generator has an
    entry on its midpoints or below them and none of its corners is sunk:
    its rows are then the Laplacian's, translated.  With two or more alike
    cells they are one class.  Stage by stage from the top, a cell runs the
    pivot loop when it is not alike or is its class's representative, the
    first alike cell below a cell that runs; an alike cell below a cell that
    runs is a copy to replay, and the cells below a copy are never touched.
    A vertex gets a row here only if its own cell runs.  The table lists, per
    cell, the midpoints of its level-0, ..., level-k cells (the cells below a
    cell are listed together, in one order) and its corners, so that equal
    positions are translates."""
    n, level = graph.n_vertices, graph.level
    mids, corners, big = cell_index(graph)
    top = [v for v in big if v != n]
    home_level = np.full(n + len(columns), level, dtype=np.int64)
    home_cell = np.zeros(n + len(columns), dtype=np.int64)
    for k, cells in enumerate(mids):
        home_level[cells] = k
        home_cell[cells] = np.arange(len(cells))[:, None]
    touched = np.array(sorted({v for g in columns for v, x in enumerate(g) if x}), dtype=np.int64)
    cells = [np.where(home_level <= k, home_cell // 3 ** np.maximum(k - home_level, 0), -1) for k in range(level + 1)]
    stages = [_Stage(cells[level].tolist(), rank, 0, np.empty((0, 0), dtype=np.intp))]
    runs = []
    for k in reversed(range(level)):
        count = len(mids[k])
        # The cells below a cell that runs: the last stage's one cell, or
        # the three cells below each cell of stage k + 1 that ran.
        below = np.repeat(runs[-1], 3) if runs else np.ones(count, dtype=bool)
        alike = ~(corners[k] == n).any(axis=1)
        hit = cells[k][touched]
        alike[hit[hit >= 0]] = False
        size, run, table = int(alike.sum()), below, np.empty((0, 0), dtype=np.intp)
        if size > 1:
            members = np.flatnonzero(alike & below)
            run = ~alike
            run[members[0]] = True
            table = np.concatenate([m.reshape(count, -1) for m in mids[: k + 1]] + [corners[k]], axis=1)[members]
        runs.append(run)
        stages.append(_Stage(cells[k].tolist(), rank, size if size > 1 else 0, table))
    stages.reverse()
    runs.reverse()
    rows = {}
    # Each row from the vertex's column of the neighbour table, which lists
    # the neighbours ascending and then the padding slot n.
    running = np.concatenate([cells[run].ravel() for cells, run in zip(mids, runs)] + [np.array(top, dtype=np.intp)])
    for v, near in zip(running.tolist(), graph.table[:, running].T.tolist()):
        row = rows[v] = {v: graph.degrees[v]}
        for w in near:
            if w != n:
                row[w] = row.get(w, 0) - 1
        for k, g in enumerate(columns):
            if g[v]:
                row[n + k] = g[v]
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
    cols: dict[int, set[int]] = {}
    for i, entries in matrix.items():
        row = rows[i] = {j: x % modulus for j, x in entries.items() if x % modulus}
        for j in row:
            cols.setdefault(j, set()).add(i)
    exponents: list[int] = []
    change = None  # the last class's change of its corner rows in its corner columns
    for stage in stages:
        cell = stage.cell
        live = sorted((i for i in rows if cell[i] >= 0), key=stage.rank.__getitem__)
        if stage.alike:
            first = cell[stage.table[0, 0]]
            own = [i for i in live if cell[i] == first]
            live = [i for i in live if cell[i] != first]
            found, change = _replay(matrix, rows, cols, stage, own, change, p, rounds)
            exponents += found * stage.alike
        if live:
            exponents += _pivot_loop(rows, cols, cell, live, p, rounds)
    return exponents, len(rows)


def _replay(
    matrix: dict[int, dict[int, int]],
    rows: dict[int, dict[int, int]],
    cols: dict[int, set[int]],
    stage: _Stage,
    own: list[int],
    below: list[list[int]] | None,
    p: int,
    rounds: int,
) -> tuple[list[int], list[list[int]]]:
    """Run the pivot loop on the representative, whose rows are `own`, and
    replay its net effect on the copies of `stage.table`, whose rows do not
    exist yet.  Returns the representative's exponents and the class's
    change of its corner rows in its corner columns.

    A copy gets the representative's surviving rows, and its corner rows
    get the representative's corner rows' entries in its columns, in place
    of their first ones, all moved through the table.  Its corner rows'
    entries in its corner columns are added to, never read, by pivots in
    it or below it, so the copy adds the class's change: this stage's, and
    at each corner that of the alike cell below at that corner (`below`,
    the last stage's change)."""
    modulus = p**rounds
    cell, table = stage.cell, stage.table
    first = cell[table[0, 0]]
    corners = table[0, -3:].tolist()
    before = [[rows[x].get(y, 0) for y in corners] for x in corners]
    exponents = _pivot_loop(rows, cols, cell, own, p, rounds)
    change = [[rows[x].get(y, 0) - b for y, b in zip(corners, old)] for x, old in zip(corners, before)]
    for s in range(3 if below else 0):
        change[s][s] += below[s][s]
    change = [[d % modulus for d in line] for line in change]
    if len(table) < 2:
        return exponents, change
    after = [(i, rows[i]) for i in own if i in rows]
    edges = {x: [c for c in matrix[x] if cell[c] == first] for x in corners}
    reach = {x: [(c, v) for c, v in rows[x].items() if cell[c] == first] for x in corners}
    used = {*corners, *(i for i, _ in after)}
    for _, row in after:
        used.update(row)
    for x in corners:
        used.update(edges[x])
        used.update(c for c, _ in reach[x])
    used = list(used)
    order = np.argsort(table[0])
    for image in table[1:, order[np.searchsorted(table[0], used, sorter=order)]].tolist():
        to = dict(zip(used, image))
        for x, line in zip(corners, change):
            tx = to[x]
            row = rows[tx]
            for c in edges[x]:
                if row.pop(to[c], None) is not None:
                    cols[to[c]].discard(tx)
            for c, v in reach[x]:
                row[to[c]] = v
                cols.setdefault(to[c], set()).add(tx)
            for y, d in zip(corners, line):
                if d:
                    ty = to[y]
                    w = (row.get(ty, 0) + d) % modulus
                    if w:
                        if ty not in row:
                            cols.setdefault(ty, set()).add(tx)
                        row[ty] = w
                    else:
                        del row[ty]
                        cols[ty].discard(tx)
        for i, new in after:
            ti = to[i]
            row = rows[ti] = {to[c]: v for c, v in new.items()}
            for c in row:
                cols.setdefault(c, set()).add(ti)
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
    cap and then uncapped until none is left; a row without one waits for
    the next stage.  At the last stage these are the usual rounds that
    divide the surviving rows by p."""
    modulus = p**rounds
    exponents: list[int] = []
    active = live
    # A pivot changes the rows and column counts of its own cell only (and
    # of its corners, which lie in no cell of this stage), so a row's best
    # pivot holds until a pivot in its cell bumps the version.
    version = Counter()
    r = 0
    while active:
        scale, step = p**r, p ** (r + 1)
        seen: dict[int, tuple[int, tuple[int, int] | None]] = {}

        def best(i: int) -> tuple[int, int] | None:
            # The cheapest valuation-r pivot (cost, column) of row i in its
            # cell.  A live row is divisible by p^r (see the end of the
            # round); the pivot's column must be too.
            home = cell[i]
            if (hit := seen.get(i)) and hit[0] == version[home]:
                return hit[1]
            row, found = rows[i], None
            width = len(row) - 1
            for j, x in row.items():
                if x % step and cell[j] == home:
                    cost = width * (len(cols[j]) - 1)
                    if (found is None or cost < found[0]) and not (
                        r and any(rows[s][j] % scale for s in cols[j])
                    ):
                        found = (cost, j)
            seen[i] = (version[home], found)
            return found

        def pivot(i: int, j: int) -> None:
            # Clear column j with row i and drop both.
            version[cell[i]] += 1
            prow = rows.pop(i)
            for c in prow:
                cols[c].discard(i)
            inv = pow(prow.pop(j) // scale, -1, modulus)
            terms = list(prow.items())
            for t in cols.pop(j):
                row = rows[t]
                f = row.pop(j) // scale * inv % modulus
                for c, v in terms:
                    w = (row.get(c, 0) - f * v) % modulus
                    if w:
                        if c not in row:
                            cols[c].add(t)
                        row[c] = w
                    elif c in row:
                        del row[c]
                        cols[c].discard(t)
            if r:
                exponents.append(r)

        # One pass per Markowitz cap over the rows whose least valuation
        # is r, then uncapped passes over every live row (pivots may have
        # brought some down to r) until a pass takes nothing.
        for cap in _MARKOWITZ_CAPS:
            for i in active:
                if i in rows and (found := best(i)) and found[0] <= cap:
                    pivot(i, found[1])
        taken = True
        while taken:
            taken = False
            for i in live:
                if i in rows and (found := best(i)):
                    pivot(i, found[1])
                    taken = True
        # The next round is the least valuation above r that is some live
        # row's least and lies in the row's cell.  A row whose least
        # valuation is lower keeps it through this stage, since every
        # update from now on is divisible by p^r: it waits for the next.
        lows = {i: _least_valuations(rows[i], cell, i, p) for i in live if i in rows}
        r = min((low for low, inside in lows.values() if r < low == inside < rounds), default=rounds)
        live = [i for i, (low, _) in lows.items() if low >= r]
        active = [i for i in live if lows[i][0] == r]
    return exponents


def _least_valuations(row: dict[int, int], cell: list[int], i: int, p: int) -> tuple[float, float]:
    """The least p-adic valuation of the row's entries, and the least of
    those in the columns of row i's cell (inf where there are none)."""
    low, inside, home = math.inf, math.inf, cell[i]
    for j, x in row.items():
        e = _valuation(x, p)
        low = min(low, e)
        if cell[j] == home:
            inside = min(inside, e)
    return low, inside
