"""PlyTrace: polygon rendering with a work pile (Section 3.2).

"PlyTrace is a floating-point intensive C-threads program for rendering
artificial images in which surfaces are approximated by polygons.  One of
its phases is parallelized by using as a work pile its queue of lists of
polygons to be rendered."

The model: a shared queue of polygon lists (queue words are writably
shared → pinned), polygon geometry written once at startup and then only
read (replicated read-only, like IMatMult's inputs), shading arithmetic
(floating-point heavy, private stack/workspace traffic), and pixel output
into per-thread framebuffer bands whose boundary rows are writably shared
with the neighbouring band (a small, genuine source of global traffic —
and a false-sharing knob: ``padded_framebuffer=False`` packs the bands so
every boundary page is shared).

Table 3 row: α = .96, β = .50, γ = 1.02 (G/L = 2).
"""

from __future__ import annotations

from typing import List

from repro.sim.ops import Barrier, Compute, MemBlock, reuse_ops
from repro.workloads.base import BuildContext, ThreadBody, Workload
from repro.workloads.layout import LayoutBuilder

#: Per-polygon reference budget (see Table 3 calibration in DESIGN.md):
#: geometry fetches from the replicated polygon store, private workspace
#: and stack traffic for the shading math, pixel stores into the private
#: band, and a couple of stores that land on the shared boundary rows.
GEOMETRY_READS = 32
WORKSPACE_READS = 40
WORKSPACE_WRITES = 24
PIXEL_WRITES = 48
BOUNDARY_WRITES = 4
#: Shading compute per polygon (floating point on ACE software paths),
#: calibrated so β lands at the paper's .50.
SHADE_US = 105.0
#: Geometry of the packed framebuffer: a fixed scanline layout in words,
#: so false sharing scales with the machine's page size (ablation A7).
PACKED_ROWS = 70
PACKED_ROW_WORDS = 128


class PlyTrace(Workload):
    """Work-pile polygon renderer."""

    name = "PlyTrace"
    g_over_l = 2.0

    def __init__(
        self, n_polygons: int = 6_000, padded_framebuffer: bool = True
    ) -> None:
        if n_polygons < 1:
            raise ValueError("need at least one polygon")
        self.n_polygons = n_polygons
        self.padded_framebuffer = padded_framebuffer
        if not padded_framebuffer:
            self.name = "PlyTrace-packed"

    @classmethod
    def small(cls) -> "PlyTrace":
        """A fast-test instance."""
        return cls(n_polygons=400)

    def build(self, ctx: BuildContext) -> List[ThreadBody]:
        layout = LayoutBuilder(ctx)
        layout.code("plytrace.text", pages=4)
        queue = layout.shared("workpile.queue", words=64)
        queue_page = queue.vpage_at(0)
        geometry_words = max(64, self.n_polygons * 8)
        geometry = layout.read_mostly("polygon.store", words=geometry_words)
        stacks = [layout.stack(t) for t in range(ctx.n_threads)]
        bands = [
            layout.private(
                f"framebuffer.band{t}",
                words=4 * ctx.page_size_words,
                thread=t,
            )
            for t in range(ctx.n_threads)
        ]
        if self.padded_framebuffer:
            boundary = layout.shared("framebuffer.boundary", words=2048)
        else:
            # Packed layout: one contiguous scanline buffer with no
            # regard for which thread renders which rows — the "little
            # regard for the threads that will access the objects" layout
            # of Section 4.2.  Sized in *words* so that the amount of
            # false sharing scales with the machine's page size.
            boundary = layout.shared(
                "framebuffer.packed",
                words=PACKED_ROWS * PACKED_ROW_WORDS,
            )

        # Six ops per polygon over a handful of pages: built once, re-yielded.
        mem = reuse_ops(MemBlock)
        grab = MemBlock(queue_page, reads=1, writes=1)
        shade = Compute(SHADE_US)

        def body(thread: int) -> ThreadBody:
            # Thread 0 loads the scene: writes the polygon store once.
            if thread == 0:
                for vpage, span in layout.range_of(
                    geometry, 0, geometry_words
                ).pages():
                    yield MemBlock(vpage, reads=0, writes=span)
                yield Compute(geometry_words * 0.3)
            yield Barrier("plytrace.scene")

            workspace = MemBlock(
                stacks[thread].vpage_at(0), WORKSPACE_READS, WORKSPACE_WRITES
            )
            band = bands[thread]
            for index in range(thread, self.n_polygons, ctx.n_threads):
                # Pull the next polygon list off the work pile.
                yield grab
                geo_word = (index * 8) % geometry_words
                yield mem(
                    layout.page_of_word(geometry, geo_word), GEOMETRY_READS, 0
                )
                yield shade
                yield workspace
                if self.padded_framebuffer:
                    pixel_page = band.vpage_at(index % band.n_pages)
                    yield mem(pixel_page, 0, PIXEL_WRITES)
                    yield mem(boundary.vpage_at(0), 0, BOUNDARY_WRITES)
                else:
                    # Each thread renders a contiguous band of scanlines,
                    # but the bands are packed back-to-back with no
                    # padding: whether a page straddles two threads'
                    # bands — false sharing — depends on the page size.
                    rows_per_thread = max(1, PACKED_ROWS // ctx.n_threads)
                    band_start = (thread * rows_per_thread) % PACKED_ROWS
                    row = band_start + (index // ctx.n_threads) % rows_per_thread
                    pixel_page = layout.page_of_word(
                        boundary, (row % PACKED_ROWS) * PACKED_ROW_WORDS
                    )
                    yield mem(pixel_page, 0, PIXEL_WRITES + BOUNDARY_WRITES)

        return [body(t) for t in range(ctx.n_threads)]
