"""The perfect-matching kernel of the Birkhoff peel, in pure Python.

Finds the lexicographically smallest perfect matching of a bipartite
graph on ``k`` rows and ``k`` columns.  "Lexicographically smallest"
means the column sequence (col(0), col(1), ..., col(k-1)) is minimal
among all perfect matchings; it is unique.

`LexMinMatching` holds the graph as Python-int bitsets, row -> columns
and column -> rows, and keeps them with its matching while the graph
loses edges, as one block of D does over the rounds of its peel.  Each
`solve` does two things:

* Repair.  The rows whose matched edge was dropped since the last solve
  are re-matched by an augmenting-path search (breadth first, over the
  bitsets).  The graph starts with every row unmatched, so the first
  solve is Kuhn's algorithm.
* Re-pin.  Rows are pinned in index order.  Row r, on column cur, may
  move to a smaller column c only if the row that owns c can be
  re-matched without the pinned rows: along an alternating path, over
  rows after r, that ends at cur, the column r frees.  One reverse
  search from cur, over the column -> rows bitsets, finds every row
  that can reach cur, so it answers all candidate columns of r at once;
  r takes the smallest candidate whose owner is reached, and the path
  shifts along the search's parent pointers.  No search is a probe that
  fails.

The re-pin keeps a floor lemma: while the pinned prefix equals that of
the previous solve's matching M, no column below M's column for the
next row extends to a perfect matching of the old graph, hence none
does of its subgraph now.  So candidates below it are skipped until the
prefix first differs, and a row still on it needs no search.  The
first solve runs the same loop on a floor of zeros, which no column
lies below, so the lemma holds there trivially.  The floor changes
only the work: the matching is the one a new kernel on the same graph
returns.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def active_backend() -> str:
    """Name of the matching kernel, as benchmark records report it.

    There is one kernel, the pure-Python one in this module.
    """
    return "python"


class LexMinMatching:
    """The lex-min perfect matching of a graph that loses edges.

    ``adjacency[r]`` lists the columns of row r; there are as many
    columns as rows.  `drop` removes an edge, `solve` returns the lex-min
    perfect matching of the graph as it stands, as a row -> column
    tuple, or None when it has none (the kernel is then spent).
    """

    __slots__ = ("cols", "rows", "col_of", "row_of", "free", "open", "floor", "parent")

    def __init__(self, adjacency: Sequence[Iterable[int]]):
        k = len(adjacency)
        cols = [0] * k  # row -> its columns
        rows = [0] * k  # column -> its rows
        for r, adj in enumerate(adjacency):
            bit = 1 << r
            bits = 0
            for c in adj:
                bits |= 1 << c
                rows[c] |= bit
            cols[r] = bits
        self.cols = cols
        self.rows = rows
        self.col_of = [-1] * k
        self.row_of = [-1] * k
        self.free = list(range(k))  # rows to re-match at the next solve
        self.open = (1 << k) - 1  # unmatched columns
        self.floor = (0,) * k  # the last solve's matching; no column lies below 0
        self.parent = [0] * k  # reused by every search: one slot per row or column

    def drop(self, row: int, col: int) -> None:
        """Remove the edge (row, col)."""
        self.cols[row] &= ~(1 << col)
        self.rows[col] &= ~(1 << row)
        if self.col_of[row] == col:
            self.col_of[row] = self.row_of[col] = -1
            self.free.append(row)
            self.open |= 1 << col

    def solve(self) -> tuple[int, ...] | None:
        """The lex-min perfect matching of the graph, or None."""
        for root in self.free:
            if not self._augment(root):
                return None
        self.free.clear()
        cols, col_of = self.cols, self.col_of
        floor = self.floor
        same = True  # the pinned prefix is the floor's
        pinned = 0  # columns of the pinned rows
        after = (1 << len(col_of)) - 1  # rows after the one being pinned
        for r in range(len(col_of)):
            cur = col_of[r]
            after ^= 1 << r
            low = floor[r] if same else 0
            if cur != low:
                cand = cols[r] & ((1 << cur) - (1 << low)) & ~pinned
                if cand:
                    cur = self._repin(r, cur, cand, after)
                same = same and cur == low
            pinned |= 1 << cur
        self.floor = match = tuple(col_of)
        return match

    def _augment(self, root: int) -> bool:
        """Match the free row `root` along a shortest augmenting path."""
        cols, col_of, row_of, via = self.cols, self.col_of, self.row_of, self.parent
        seen = 0
        frontier = [root]
        while frontier:
            grown = []
            for x in frontier:
                new = cols[x] & ~seen
                hit = new & self.open
                if hit:
                    c = (hit & -hit).bit_length() - 1
                    self.open ^= 1 << c
                    while True:  # x takes c, its old column passes back along the path
                        old = col_of[x]
                        col_of[x] = c
                        row_of[c] = x
                        if old < 0:
                            return True
                        c = old
                        x = via[c]
                seen |= new
                while new:
                    bit = new & -new
                    new ^= bit
                    c = bit.bit_length() - 1
                    via[c] = x
                    grown.append(row_of[c])
            frontier = grown
        return False

    def _repin(self, r: int, cur: int, cand: int, after: int) -> int:
        """Move row r from `cur` to the smallest column of `cand` whose
        owner can reach `cur` over the rows of `after`; return r's column."""
        rows, col_of, row_of, parent = self.rows, self.col_of, self.row_of, self.parent
        first = cand & -cand
        frontier = rows[cur] & after
        unseen = after ^ frontier
        bits = frontier
        while bits:  # these rows take cur itself
            bit = bits & -bits
            bits ^= bit
            parent[bit.bit_length() - 1] = -1
        reach = 0  # columns whose owners can reach cur
        while frontier and not reach & first:
            grown = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                y = bit.bit_length() - 1
                col = col_of[y]
                reach |= 1 << col
                new = rows[col] & unseen
                if new:
                    unseen ^= new
                    grown |= new
                    while new:
                        bit = new & -new
                        new ^= bit
                        parent[bit.bit_length() - 1] = y
            frontier = grown
        hit = cand & reach
        if not hit:
            return cur
        c = (hit & -hit).bit_length() - 1
        x = row_of[c]
        col_of[r] = c
        row_of[c] = r
        while True:  # the owner of c moves up its parent pointers to cur
            y = parent[x]
            to = cur if y < 0 else col_of[y]
            col_of[x] = to
            row_of[to] = x
            if y < 0:
                return c
            x = y
