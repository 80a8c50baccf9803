"""The perfect-matching kernel of the Birkhoff peel, in pure Python.

Finds the lexicographically smallest perfect matching of a bipartite
graph given as adjacency lists (``adjacency[i]`` holds the columns of
row ``i`` in ascending order; ``n`` rows and ``n`` columns).
"Lexicographically smallest" means the column sequence (col(0), col(1),
..., col(n-1)) is minimal among all perfect matchings; it is unique.

The algorithm runs Kuhn's augmenting-path search (rows in index order,
columns in ascending order) to complete a perfect matching, then pins
rows one by one: for each row, every smaller column is tried in turn and
kept if the remaining graph still extends to a perfect matching (one
augmenting-path test per candidate).

A warm start cuts both phases down when the graph G' is a subgraph of a
graph G whose lex-min matching M is known (``previous``), as in every
Birkhoff peel round after the first:

* M minus the edges missing from G' is a matching of G', so only the
  rows that lost their edge need an augmenting path;
* while the pinned prefix equals M's, no column below M's column for
  the next row extends to a perfect matching of G, hence none does in
  G'; candidates below it are skipped until the prefix first differs.

If ``previous`` does not come from a supergraph's lex-min matching the
result is undefined.  The hint changes only the speed: the matching is
the same as the cold search returns.  Each search marks visited columns
with its own stamp in one list per call, so no search clears a list.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence


def _augment(
    root: int,
    barrier: int,
    adjacency: Sequence[Sequence[int]],
    row_of: list[int],
    col_of: list[int],
    seen: list[int],
    stamp: int,
) -> bool:
    """Search an augmenting path from free row `root`, iteratively.

    Rows below `barrier` are pinned: their matched columns may not be
    displaced.  Columns with ``seen[col] == stamp`` were visited by this
    search.  On success the matching arrays are updated in place.
    """
    path_rows = [root]
    path_cols: list[int] = []  # path_cols[k] leads from path_rows[k] to path_rows[k + 1]
    scans = [iter(adjacency[root])]
    while scans:
        for col in scans[-1]:
            if seen[col] == stamp:
                continue
            owner = row_of[col]
            if 0 <= owner < barrier:
                continue
            seen[col] = stamp
            path_cols.append(col)
            if owner < 0:
                for r, c in zip(path_rows, path_cols):
                    row_of[c] = r
                    col_of[r] = c
                return True
            path_rows.append(owner)
            scans.append(iter(adjacency[owner]))
            break
        else:  # every column of this row is spent: backtrack
            scans.pop()
            path_rows.pop()
            if path_cols:
                path_cols.pop()
    return False


def active_backend() -> str:
    """Name of the matching kernel, as benchmark records report it.

    There is one kernel, the pure-Python one in this module.
    """
    return "python"


def lex_min_perfect_matching(
    adjacency: Sequence[Sequence[int]], *, previous: Sequence[int] | None = None
) -> list[int] | None:
    """Return the lex-smallest perfect matching as a row->column list.

    `previous`, if given, is the lex-min perfect matching of a graph that
    contains this one (see the module docstring).  Returns None when the
    graph has no perfect matching.
    """
    n = len(adjacency)
    col_of = [-1] * n
    row_of = [-1] * n
    seen = [0] * n
    stamp = 0

    if previous is not None:
        for row, col in enumerate(previous):
            cols = adjacency[row]
            k = bisect_left(cols, col)
            if k < len(cols) and cols[k] == col:
                col_of[row] = col
                row_of[col] = row
    for row in range(n):
        if col_of[row] < 0:
            stamp += 1
            if not _augment(row, 0, adjacency, row_of, col_of, seen, stamp):
                return None

    same_prefix = previous is not None
    for row in range(n):
        current = col_of[row]
        cols = adjacency[row]
        start = 0
        if same_prefix:
            floor = previous[row]
            if current == floor:
                continue
            start = bisect_left(cols, floor)
        for k in range(start, len(cols)):
            col = cols[k]
            if col >= current:
                break
            owner = row_of[col]
            if owner < row:
                continue  # column already pinned to an earlier row
            # Tentatively move `row` onto `col`, freeing `owner`, and test
            # whether the displaced row can be rematched elsewhere.
            col_of[row] = col
            row_of[col] = row
            col_of[owner] = -1
            row_of[current] = -1
            stamp += 1
            if _augment(owner, row + 1, adjacency, row_of, col_of, seen, stamp):
                current = col
                break
            col_of[row] = current
            row_of[current] = row
            col_of[owner] = col
            row_of[col] = owner
        same_prefix = same_prefix and current == floor

    return col_of
