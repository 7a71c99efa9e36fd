"""Gfetch: the all-shared-memory extreme (Section 3.2).

"The Gfetch program does nothing but fetch from shared virtual memory.
Loop control and workload allocation costs are too small to be seen.
Its β is thus 1 and its α 0."

Every thread first stores into each page of a shared buffer (which makes
the pages writably shared: they ping-pong between owners and are pinned
in global memory), then spends the run fetching from them.  Table 3 row:
γ = Tnuma/Tlocal = 2.27 ≈ the ACE's G/L fetch ratio, Tglobal = Tnuma.

Model solving uses G/L = 2.3 (footnote 3: almost all fetches).
"""

from __future__ import annotations

from typing import List

from repro.sim.ops import Barrier, MemBlock
from repro.workloads.base import BuildContext, ThreadBody, Workload
from repro.workloads.layout import LayoutBuilder


class Gfetch(Workload):
    """Saturating fetch traffic against a writably-shared buffer."""

    name = "Gfetch"
    g_over_l = 2.3

    def __init__(
        self,
        total_fetches: int = 240_000,
        buffer_pages: int = 8,
        chunk_fetches: int = 2_000,
        init_rounds: int = 2,
    ) -> None:
        if total_fetches < 1 or buffer_pages < 1 or chunk_fetches < 1:
            raise ValueError("work sizes must be positive")
        self.total_fetches = total_fetches
        self.buffer_pages = buffer_pages
        self.chunk_fetches = chunk_fetches
        #: Rounds of per-thread stores during initialization: with n
        #: threads, two rounds change a buffer page's owner up to 2n - 1
        #: times, which pins it under the paper's threshold of 4 from
        #: three threads up.  At 2 processors that is 3 moves < 4: the
        #: buffer is never pinned and the run reads alpha = 1.00, not the
        #: all-shared extreme -- a threshold artifact, and the reason the
        #: ``speedup --apps Gfetch`` curve dips from 2 to 4 processors.
        self.init_rounds = init_rounds

    @classmethod
    def small(cls) -> "Gfetch":
        """A fast-test instance."""
        return cls(total_fetches=8_000, buffer_pages=2, chunk_fetches=500)

    def build(self, ctx: BuildContext) -> List[ThreadBody]:
        layout = LayoutBuilder(ctx)
        layout.code("gfetch.text", pages=2)
        page_words = ctx.page_size_words
        buffer = layout.shared(
            "gfetch.buffer", words=self.buffer_pages * page_words
        )
        per_thread = self.total_fetches // ctx.n_threads

        def body(thread: int) -> ThreadBody:
            # Initialization: every thread stores a stripe of every page,
            # making the buffer writably shared in actual behaviour (not
            # just declaration).
            stripe = max(1, page_words // max(1, ctx.n_threads))
            vpages = [buffer.vpage_at(i) for i in range(self.buffer_pages)]
            stores = [MemBlock(vpage, reads=0, writes=stripe) for vpage in vpages]
            for _ in range(self.init_rounds):
                yield from stores
            yield Barrier("gfetch.init")
            # Steady state.  Ops are frozen value objects, so the per-page
            # fetch blocks are built once and re-yielded: the generator
            # must not itself be a cost the simulator ends up measuring.
            n_pages = self.buffer_pages
            full_chunks, tail = divmod(per_thread, self.chunk_fetches)
            blocks = [
                MemBlock(vpage, reads=self.chunk_fetches, writes=0)
                for vpage in vpages
            ]
            page_index = thread % n_pages
            for _ in range(full_chunks):
                yield blocks[page_index]
                page_index = (page_index + 1) % n_pages
            if tail:
                yield MemBlock(vpages[page_index], reads=tail, writes=0)

        return [body(t) for t in range(ctx.n_threads)]
