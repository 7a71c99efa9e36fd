"""IMatMult: integer matrix multiplication (Section 3.2).

"The IMatMult program computes the product of a pair of 200x200 integer
matrices.  Workload allocation parcels out elements of the output matrix,
which is found to be shared and is placed in global memory.  Once
initialized, the input matrices are only read, and are thus replicated in
local memory.  This program emphasizes the value of replicating data that
is writable, but that is never written."

The ROMP has no data cache, so computing one output element fetches a row
of A and a column of B from memory: 2n fetches per store ("400 local
fetches per global store" at n = 200).  Rows of the output are assigned
cyclically, so every output page is written by several threads,
ping-pongs, and is pinned — the behaviour the paper reports.

Table 3 row: α = .94, β = .26, γ = 1.01 (G/L = 2.3, all-fetch mix).
The default n = 200 is the paper's actual problem size.
"""

from __future__ import annotations

from typing import List

from repro.sim.ops import Barrier, Compute, MemBlock, reuse_ops
from repro.workloads.base import BuildContext, ThreadBody, Workload
from repro.workloads.layout import FractionalRefs, LayoutBuilder

#: Per-element cost of the dot-product step: one integer multiply, one
#: add, and index arithmetic.  Calibrated so the single-threaded run
#: spends the paper's β = .26 of its time on data references.
ELEMENT_US = 3.74


class IMatMult(Workload):
    """C = A × B over integer matrices, rows of C self-scheduled."""

    name = "IMatMult"
    g_over_l = 2.3

    def __init__(self, n: int = 200) -> None:
        if n < 2:
            raise ValueError("matrix dimension must be at least 2")
        self.n = n

    @classmethod
    def small(cls) -> "IMatMult":
        """A fast-test instance."""
        return cls(n=24)

    def build(self, ctx: BuildContext) -> List[ThreadBody]:
        layout = LayoutBuilder(ctx)
        layout.code("imatmult.text", pages=3)
        n = self.n
        words = n * n
        a = layout.read_mostly("matrix.A", words)
        b = layout.read_mostly("matrix.B", words)
        c = layout.shared("matrix.C", words)
        page_words = ctx.page_size_words
        # Every row sweeps the same pages with the same few counts.
        mem = reuse_ops(MemBlock)
        multiply = Compute(n * n * ELEMENT_US)

        def body(thread: int) -> ThreadBody:
            # Thread 0 initializes both inputs (stores every element);
            # everyone else waits.  The inputs are writable pages that
            # are never written again — prime replication candidates.
            if thread == 0:
                for region in (a, b):
                    for mem_block in _store_sweep(layout, region, words):
                        yield mem_block
                yield Compute(words * 0.4)  # generation arithmetic
            yield Barrier("imatmult.init")

            b_frac = FractionalRefs()
            for row in range(thread, n, ctx.n_threads):
                # Row `row` of C: n^2 fetches of A's row (refetched per
                # element, no data cache), n^2 fetches spread over all of
                # B (column walks), n stores into C's row.
                a_page = layout.page_of_word(a, row * n)
                yield mem(a_page, n * n, 0)
                # Column walks touch B's pages uniformly.
                b_pages = b.n_pages
                for page_index in range(b_pages):
                    page_lo = page_index * page_words
                    words_here = min(page_words, words - page_lo)
                    share = words_here / words
                    reads, _ = b_frac.take(n * n * share, 0.0)
                    if reads:
                        yield mem(b.vpage_at(page_index), reads, 0)
                yield multiply
                c_page = layout.page_of_word(c, row * n)
                yield mem(c_page, 0, n)

        return [body(t) for t in range(ctx.n_threads)]


def _store_sweep(layout: LayoutBuilder, region, words: int):
    """Store once into every word of a region (initialization)."""
    word_range = layout.range_of(region, 0, words)
    for vpage, span in word_range.pages():
        yield MemBlock(vpage, reads=0, writes=span)
