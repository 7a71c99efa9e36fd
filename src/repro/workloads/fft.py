"""FFT: EPEX FORTRAN 2-D fast Fourier transform (Section 3.2).

"The FFT program, which does a fast Fourier transform of a 256 by 256
array of floating point numbers, was parallelized using the EPEX FORTRAN
preprocessor."  EPEX separates private from shared data automatically:
each thread FFTs its rows in a *private* workspace, exchanging data with
the *shared* matrix only to load inputs and to transpose between the row
and column phases.  Baylor & Rathi's trace study found about 95% of its
data references were private, which the paper cites as evidence that its
NUMA placement (α = .96) was near the algorithm's limit.

Table 3 row: α = .96, β = .56, γ = 1.02 (G/L = 2).  The default matrix
is the paper's full 256×256.

Calibration: a radix-2 butterfly on ACE software/FPA floating point is
modelled as ``BUTTERFLY_REFS`` private references (operand loads/stores of
the complex arithmetic, twiddle fetches, loop state) and ``BUTTERFLY_US``
of compute, chosen to land the paper's β.
"""

from __future__ import annotations

import math
from typing import List

from repro.sim.ops import Barrier, Compute, MemBlock, reuse_ops
from repro.workloads.base import BuildContext, ThreadBody, Workload
from repro.workloads.layout import FractionalRefs, LayoutBuilder

#: Private references per butterfly.  Floating point on the ACE runs in
#: software/FPA routines whose operands, temporaries and normalization
#: state all live in memory, so one complex butterfly (4 multiplies, 6
#: adds) generates a couple of hundred private references.
BUTTERFLY_REFS = 200
#: Read/write split of butterfly references (loads dominate slightly).
BUTTERFLY_READ_FRACTION = 0.58
#: Compute per butterfly, calibrated with BUTTERFLY_REFS to the paper's
#: β = .56 (the non-reference part of the floating-point routines).
BUTTERFLY_US = 130.0
#: References per butterfly-block MemBlock (keeps op counts tractable).
PRIVATE_BLOCK_REFS = 8192
#: Columns gathered per trip through the matrix in the transpose phase
#: (a blocked transpose: amortizes the strided walk).
COL_BATCH = 8
#: References per matrix element moved between shared memory and the
#: private workspace: unpack/convert through the floating-point paths
#: costs several references per word, not one.
SHARED_XFER_REFS = 8


class FFT(Workload):
    """2-D FFT with EPEX-style private/shared segregation."""

    name = "FFT"
    g_over_l = 2.0

    def __init__(self, size: int = 256) -> None:
        if size < 4 or size & (size - 1):
            raise ValueError("size must be a power of two, at least 4")
        self.size = size

    @classmethod
    def small(cls) -> "FFT":
        """A fast-test instance."""
        return cls(size=32)

    def build(self, ctx: BuildContext) -> List[ThreadBody]:
        layout = LayoutBuilder(ctx)
        layout.code("fft.text", pages=4)
        m = self.size
        row_words = 2 * m  # complex values, two words each
        matrix = layout.shared("fft.matrix", words=m * row_words)
        workspaces = [
            layout.private(f"fft.work{t}", words=row_words * 2, thread=t)
            for t in range(ctx.n_threads)
        ]
        stacks = [layout.stack(t) for t in range(ctx.n_threads)]

        passes = int(math.log2(m))
        butterflies_per_line = (m // 2) * passes
        private_refs = butterflies_per_line * BUTTERFLY_REFS
        page_words = ctx.page_size_words
        mem = reuse_ops(MemBlock)

        def line_compute(thread: int) -> ThreadBody:
            """Butterfly passes over one line held in private workspace.

            The carries start from zero, so every line of a thread is the
            same sequence: generated once per body, re-yielded per line.
            """
            work_page = workspaces[thread].vpage_at(0)
            stack_page = stacks[thread].vpage_at(0)
            remaining = private_refs
            work_frac = FractionalRefs()
            stack_frac = FractionalRefs()
            while remaining > 0:
                block = min(remaining, PRIVATE_BLOCK_REFS)
                reads, writes = work_frac.take(
                    block * BUTTERFLY_READ_FRACTION,
                    block * (1.0 - BUTTERFLY_READ_FRACTION),
                )
                if reads or writes:
                    yield MemBlock(work_page, reads=reads, writes=writes)
                yield Compute(block / BUTTERFLY_REFS * BUTTERFLY_US)
                # A sliver of stack traffic for call/loop state.
                s_reads, s_writes = stack_frac.take(block * 0.02, block * 0.01)
                if s_reads or s_writes:
                    yield MemBlock(stack_page, reads=s_reads, writes=s_writes)
                remaining -= block

        def row_page(row: int) -> int:
            return layout.page_of_word(matrix, row * row_words)

        def body(thread: int) -> ThreadBody:
            line_ops = tuple(line_compute(thread))
            # Thread 0 fills the input matrix (EPEX reads it from a file
            # into shared memory before the parallel section).
            if thread == 0:
                word_range = layout.range_of(matrix, 0, m * row_words)
                for vpage, span in word_range.pages():
                    yield MemBlock(vpage, reads=0, writes=span)
                yield Compute(m * row_words * 0.3)
            yield Barrier("fft.init")

            # Row phase: load each of my rows, FFT it privately, store it
            # back for the transpose.
            for row in range(thread, m, ctx.n_threads):
                yield MemBlock(row_page(row), reads=row_words * SHARED_XFER_REFS)
                yield from line_ops
                yield MemBlock(
                    row_page(row), reads=0, writes=row_words * SHARED_XFER_REFS
                )
            yield Barrier("fft.transpose")

            # Column phase: gather each of my columns (a strided walk
            # touching every matrix page), FFT privately, scatter back.
            matrix_pages = matrix.n_pages
            rows_per_page = max(1, page_words // row_words)
            my_columns = list(range(thread, m, ctx.n_threads))
            for start in range(0, len(my_columns), COL_BATCH):
                batch = my_columns[start : start + COL_BATCH]
                for page_index in range(matrix_pages):
                    elems = min(rows_per_page, m - page_index * rows_per_page)
                    if elems <= 0:
                        break
                    yield mem(
                        matrix.vpage_at(page_index),
                        2 * elems * len(batch) * SHARED_XFER_REFS,
                        0,
                    )
                for _ in batch:
                    yield from line_ops
                for page_index in range(matrix_pages):
                    elems = min(rows_per_page, m - page_index * rows_per_page)
                    if elems <= 0:
                        break
                    yield mem(
                        matrix.vpage_at(page_index),
                        0,
                        2 * elems * len(batch) * SHARED_XFER_REFS,
                    )

        return [body(t) for t in range(ctx.n_threads)]
