"""The three prime finders (Section 3.2).

All three find the primes below ``limit`` with different parallel
structures; the paper ran them to 10,000,000, we default to 200,000 —
α, β and γ are reference-mix ratios and survive the scaling, and the
division counts are computed exactly for the scaled problem.

* **Primes1** (Beck & Olien): trial-divides each odd candidate by every
  odd number up to its square root.  Almost all references are stack
  traffic during subroutine linkage; division is expensive on the ACE.
  Table 3: α = 1.0, β = .06, γ = 1.00.

* **Primes2** (Carriero & Gelernter): divides by previously found primes
  only.  Each thread keeps a *private* vector of divisors copied from the
  shared output vector, so virtually all references are local.
  Table 3: α = .99, β = .16, γ = 1.00.  With ``private_divisors=False``
  the divisors are fetched straight from the shared output vector — the
  untuned version of Section 4.2, whose α was 0.66 — reproducing the
  paper's false-sharing case study.

* **Primes3**: a Sieve of Eratosthenes over a shared bit vector of odd
  numbers.  The sieve is written by every thread, ping-pongs until
  pinned, and then all the heavy fetch/store traffic is global.
  Table 3: α = .17, β = .36, γ = 1.30; it is also the Table 4 outlier
  (ΔS/Tnuma = 24.9%) because a large amount of memory is copied from
  local memory to local memory several times before being pinned.

Streams come from tables, not recomputation (DESIGN.md §5.7): the two
``trial_divisions_*`` functions are the *specification* of Primes1 and
Primes2's per-candidate work; :func:`division_counts` (one sieve per
build, reduced per work chunk by :func:`chunk_work`) is the implementation.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress
from typing import List, Sequence, Tuple

from repro.core.policies.pragma import Pragma
from repro.sim.ops import Barrier, Compute, MemBlock, reuse_ops
from repro.workloads.base import BuildContext, ThreadBody, Workload
from repro.workloads.layout import FractionalRefs, LayoutBuilder

#: Software integer division on the ROMP-C (no divide instruction):
#: calibrated so Primes1 spends the paper's β = .06 on data references.
DIV1_US = 67.0
#: Primes1 stack traffic per division: subroutine linkage (4 fetches,
#: 2 stores per call as registers spill and return links are followed).
DIV1_STACK_READS = 4
DIV1_STACK_WRITES = 2

#: Primes2's per-division budget: fetch the divisor (1 read), touch the
#: stack (1 read, 1 write).  Division cost calibrated for β = .16.
DIV2_US = 11.2
DIV2_LIST_READS = 1
DIV2_STACK_READS = 1
DIV2_STACK_WRITES = 1

#: Primes3 calibration: cost of one mask update (shift/or on a bit) and
#: of scanning one sieve word for surviving primes, plus the rate of
#: private stack references per sieve operation (the source of its
#: α = .17 — a sliver of local traffic under a pile of global traffic).
MASK_US = 2.5
SCAN_WORD_US = 31.0
STACK_REFS_PER_OP = 0.18
#: Sieve updates per MemBlock.  Mask sweeps are chopped into small
#: blocks so threads genuinely interleave on each sieve page: the page
#: ping-pongs and is pinned while the bulk of its traffic is still to
#: come, as on the real machine where references interleave per-word.
MASK_BLOCK_REFS = 32
#: Output words appended per shared-tail claim during the scan phase.
OUT_BLOCK_WORDS = 32

#: Work chunk (candidates) a thread claims per trip to the shared counter.
CHUNK_CANDIDATES = 64


def primes_below(limit: int) -> List[int]:
    """All primes below *limit* (used to size output vectors exactly)."""
    if limit < 3:
        return []
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for value in range(2, int(math.isqrt(limit - 1)) + 1):
        if sieve[value]:
            sieve[value * value :: value] = bytearray(
                len(range(value * value, limit, value))
            )
    # Odd flags only, through a view: no second copy of sieve or list.
    return [2, *compress(range(3, limit, 2), memoryview(sieve)[3::2])]


def trial_divisions_all_odds(candidate: int) -> int:
    """Divisions Primes1 performs for one odd candidate.

    Divides by 3, 5, 7, ... up to √candidate, stopping at the first
    divisor that divides evenly (composites exit early).
    """
    count = 0
    divisor = 3
    root = math.isqrt(candidate)
    while divisor <= root:
        count += 1
        if candidate % divisor == 0:
            return count
        divisor += 2
    return count


def trial_divisions_primes(candidate: int, primes: List[int]) -> int:
    """Divisions Primes2 performs: previously found odd primes up to √c."""
    count = 0
    root = math.isqrt(candidate)
    for p in primes:
        if p == 2:
            continue
        if p > root:
            break
        count += 1
        if candidate % p == 0:
            return count
    return count


def division_counts(
    limit: int, found: Sequence[int], primes_only: bool
) -> array:
    """Trial divisions for every odd ``c < limit``, indexed by ``c >> 1``.

    The table form of :func:`trial_divisions_all_odds` (*primes_only*: of
    :func:`trial_divisions_primes` over *found* = ``primes_below(limit)``).
    A prime is divided by everything up to its root: ``(isqrt(c) - 1) // 2``
    odd numbers, π_odd(isqrt(c)) odd primes.  An odd composite stops at its
    least odd prime factor ``p``: ``(p - 1) // 2`` odd numbers, or ``p``'s
    rank among the odd primes.  Sieving primes run largest first, so each
    composite's smallest factor writes its entry last.
    """
    half = limit // 2
    root = math.isqrt(limit - 1)
    odd_primes = [p for p in found[1:] if p <= root]
    counts = array("I", [0]) * half
    for r in range(1, root + 1):
        # Candidates with isqrt(c) == r: the odd numbers in [r², (r+1)²).
        lo, hi = (r * r) >> 1, min(half, ((r + 1) * (r + 1)) >> 1)
        value = bisect_right(odd_primes, r) if primes_only else (r - 1) // 2
        counts[lo:hi] = array("I", [value]) * (hi - lo)
    for rank in range(len(odd_primes), 0, -1):
        p = odd_primes[rank - 1]
        # Odd multiples p², p² + 2p, ... sit p apart when indexed by c >> 1.
        first = (p * p) >> 1
        value = rank if primes_only else (p - 1) // 2
        counts[first::p] = array("I", [value]) * len(range(first, half, p))
    return counts


def chunk_work(
    limit: int, found: Sequence[int], primes_only: bool
) -> List[Tuple[int, int, int]]:
    """Per work chunk: (divisions, deepest divisor index, primes found).

    Chunk *k* is the ``CHUNK_CANDIDATES`` odd candidates from
    ``3 + 2 * CHUNK_CANDIDATES * k``; the table dies with this reduction.
    """
    counts = division_counts(limit, found, primes_only)
    chunks = []
    for lo in range(1, len(counts), CHUNK_CANDIDATES):
        part = counts[lo : lo + CHUNK_CANDIDATES]
        first = 2 * lo + 1
        beyond = first + 2 * len(part)
        primes_found = bisect_left(found, beyond) - bisect_left(found, first)
        chunks.append((sum(part), max(part), primes_found))
    return chunks


class Primes1(Workload):
    """Trial division by all odd numbers (Beck & Olien structure)."""

    name = "Primes1"
    g_over_l = 2.0

    def __init__(self, limit: int = 200_000) -> None:
        if limit < 10:
            raise ValueError("limit must be at least 10")
        self.limit = limit

    @classmethod
    def small(cls) -> "Primes1":
        """A fast-test instance."""
        return cls(limit=4_000)

    def build(self, ctx: BuildContext) -> List[ThreadBody]:
        layout = LayoutBuilder(ctx)
        layout.code("primes1.text", pages=3)
        counter = layout.shared("work.counter", words=4)
        counter_page = counter.vpage_at(0)
        found = primes_below(self.limit)
        output = layout.shared("primes.output", words=max(4, len(found)))
        stacks = [layout.stack(t) for t in range(ctx.n_threads)]

        chunks = chunk_work(self.limit, found, primes_only=False)
        grab = MemBlock(counter_page, reads=1, writes=1)

        def body(thread: int) -> ThreadBody:
            stack_page = stacks[thread].vpage_at(0)
            for chunk_index in range(thread, len(chunks), ctx.n_threads):
                yield grab
                divisions, _, primes_found = chunks[chunk_index]
                if divisions:
                    yield Compute(divisions * DIV1_US)
                    yield MemBlock(
                        stack_page,
                        reads=divisions * DIV1_STACK_READS,
                        writes=divisions * DIV1_STACK_WRITES,
                    )
                if primes_found:
                    out_word = (chunk_index * CHUNK_CANDIDATES) % max(
                        1, len(found)
                    )
                    yield MemBlock(
                        layout.page_of_word(output, out_word),
                        reads=0,
                        writes=primes_found,
                    )

        return [body(t) for t in range(ctx.n_threads)]


class Primes2(Workload):
    """Trial division by previously found primes; divisors privatized.

    ``private_divisors=False`` gives the untuned variant of Section 4.2:
    every division fetches its divisor from the writably-shared output
    vector, which is pinned in global memory, dragging α down to ~2/3.
    """

    name = "Primes2"
    g_over_l = 2.0

    def __init__(
        self, limit: int = 200_000, private_divisors: bool = True
    ) -> None:
        if limit < 10:
            raise ValueError("limit must be at least 10")
        self.limit = limit
        self.private_divisors = private_divisors
        if not private_divisors:
            self.name = "Primes2-shared"

    @classmethod
    def small(cls) -> "Primes2":
        """A fast-test instance."""
        return cls(limit=4_000)

    def build(self, ctx: BuildContext) -> List[ThreadBody]:
        layout = LayoutBuilder(ctx)
        layout.code("primes2.text", pages=3)
        counter = layout.shared("work.counter", words=4)
        counter_page = counter.vpage_at(0)
        found = primes_below(self.limit)
        output = layout.shared("primes.output", words=max(4, len(found)))
        stacks = [layout.stack(t) for t in range(ctx.n_threads)]
        divisor_lists = [
            layout.private(f"divisors{t}", words=max(4, len(found)), thread=t)
            for t in range(ctx.n_threads)
        ]

        chunks = chunk_work(self.limit, found, primes_only=True)
        grab = MemBlock(counter_page, reads=1, writes=1)

        def body(thread: int) -> ThreadBody:
            stack_page = stacks[thread].vpage_at(0)
            copied = 0  # divisors copied into the private vector so far
            for chunk_index in range(thread, len(chunks), ctx.n_threads):
                yield grab
                divisions, max_divisor_index, primes_found = chunks[chunk_index]
                if divisions == 0:
                    continue
                yield Compute(divisions * DIV2_US)
                if self.private_divisors:
                    # Top up the private divisor vector: read the new
                    # divisors from the shared output (global), store
                    # them privately (local) — the tuned program of §4.2.
                    needed = min(
                        len(found), max(copied, max_divisor_index + 8)
                    )
                    if needed > copied:
                        fresh = needed - copied
                        yield MemBlock(
                            layout.page_of_word(output, copied),
                            reads=fresh,
                            writes=0,
                        )
                        yield MemBlock(
                            layout.page_of_word(divisor_lists[thread], copied),
                            reads=0,
                            writes=fresh,
                        )
                        copied = needed
                    divisor_region = divisor_lists[thread]
                else:
                    divisor_region = output
                # Divisor fetches spread over the first pages of the list.
                spread = FractionalRefs()
                list_pages = max(
                    1,
                    (max_divisor_index + layout.page_size_words - 1)
                    // layout.page_size_words,
                )
                for page_index in range(list_pages):
                    reads, _ = spread.take(
                        divisions * DIV2_LIST_READS / list_pages, 0.0
                    )
                    if reads:
                        yield MemBlock(
                            divisor_region.vpage_at(page_index), reads=reads
                        )
                yield MemBlock(
                    stack_page,
                    reads=divisions * DIV2_STACK_READS,
                    writes=divisions * DIV2_STACK_WRITES,
                )
                if primes_found:
                    out_word = (chunk_index * CHUNK_CANDIDATES) % max(
                        1, len(found)
                    )
                    yield MemBlock(
                        layout.page_of_word(output, out_word),
                        reads=0,
                        writes=primes_found,
                    )

        return [body(t) for t in range(ctx.n_threads)]


class Primes3(Workload):
    """Sieve of Eratosthenes over a shared bit vector of odd numbers.

    ``use_pragmas=True`` marks the sieve and the output vector
    ``NONCACHEABLE`` (Section 4.3's proposed pragma): run it under a
    :class:`~repro.core.policies.pragma.PragmaPolicy` and those pages go
    straight to global memory, skipping the pre-pin copying that makes
    this application Table 4's overhead outlier.
    """

    name = "Primes3"
    g_over_l = 2.0
    shared_state = ("output_tail",)

    def __init__(
        self, limit: int = 2_000_000, use_pragmas: bool = False
    ) -> None:
        if limit < 100:
            raise ValueError("limit must be at least 100")
        self.limit = limit
        self.use_pragmas = use_pragmas
        if use_pragmas:
            self.name = "Primes3-pragma"

    @classmethod
    def small(cls) -> "Primes3":
        """A fast-test instance."""
        return cls(limit=40_000)

    def build(self, ctx: BuildContext) -> List[ThreadBody]:
        layout = LayoutBuilder(ctx)
        layout.code("primes3.text", pages=3)
        page_words = ctx.page_size_words
        bits_per_word = 32
        sieve_words = (self.limit // 2 + bits_per_word - 1) // bits_per_word
        pragma = Pragma.NONCACHEABLE if self.use_pragmas else None
        sieve = layout.shared("sieve.bits", words=sieve_words, pragma=pragma)
        counter = layout.shared("work.counter", words=4)
        counter_page = counter.vpage_at(0)
        found = primes_below(self.limit)
        output = layout.shared(
            "primes.output", words=max(4, len(found)), pragma=pragma
        )
        stacks = [layout.stack(t) for t in range(ctx.n_threads)]

        # Masking work: one task per sieving prime p <= sqrt(limit).
        root = math.isqrt(self.limit)
        sieving_primes = [p for p in found if p != 2 and p <= root]
        sieve_pages = sieve.n_pages
        # A thousand distinct ops, 176 k yields: built once, re-yielded.
        mem = reuse_ops(MemBlock)
        compute = reuse_ops(Compute)
        grab = MemBlock(counter_page, reads=1, writes=1)

        def mask_ops(thread: int) -> ThreadBody:
            stack_page = stacks[thread].vpage_at(0)
            stack_frac = FractionalRefs()
            for index in range(thread, len(sieving_primes), ctx.n_threads):
                p = sieving_primes[index]
                yield grab
                # Composites p*p, p*(p+2), ... — one read-modify-write
                # per odd multiple, spread across the sieve's pages.
                first = p * p
                updates = max(0, (self.limit - first) // (2 * p) + 1)
                if updates == 0:
                    continue
                per_page = FractionalRefs()
                for page_index in range(sieve_pages):
                    page_bits = min(
                        page_words * bits_per_word,
                        self.limit // 2 - page_index * page_words * bits_per_word,
                    )
                    if page_bits <= 0:
                        continue
                    share = page_bits / (self.limit // 2)
                    rmw, _ = per_page.take(updates * share, 0.0)
                    vpage = sieve.vpage_at(page_index)
                    while rmw > 0:
                        block = min(rmw, MASK_BLOCK_REFS)
                        yield mem(vpage, block, block)
                        yield compute(block * MASK_US)
                        s_reads, s_writes = stack_frac.take(
                            block * STACK_REFS_PER_OP * 0.6,
                            block * STACK_REFS_PER_OP * 0.4,
                        )
                        if s_reads or s_writes:
                            yield mem(stack_page, s_reads, s_writes)
                        rmw -= block

        # The output vector is compacted: each thread appends the primes
        # it finds at the shared tail (claimed through the work counter),
        # so output pages are written by whichever thread gets there —
        # writably shared, pinned, and filled with global stores.
        output_tail = [0]

        def scan_ops(thread: int) -> ThreadBody:
            stack_page = stacks[thread].vpage_at(0)
            stack_frac = FractionalRefs()
            out_frac = FractionalRefs()
            density = len(found) / max(1, sieve_words)
            for page_index in range(thread, sieve_pages, ctx.n_threads):
                words_here = min(
                    page_words, sieve_words - page_index * page_words
                )
                if words_here <= 0:
                    continue
                yield MemBlock(sieve.vpage_at(page_index), reads=words_here)
                yield compute(words_here * SCAN_WORD_US)
                s_reads, s_writes = stack_frac.take(
                    words_here * STACK_REFS_PER_OP * 0.6,
                    words_here * STACK_REFS_PER_OP * 0.4,
                )
                if s_reads or s_writes:
                    yield mem(stack_page, s_reads, s_writes)
                stores, _ = out_frac.take(words_here * density, 0.0)
                while stores > 0:
                    block = min(stores, OUT_BLOCK_WORDS)
                    # Claim a chunk of the shared output tail, then fill
                    # it.  Interleaved claims from different threads put
                    # alternating writers on each output page.
                    yield grab
                    out_word = min(output_tail[0], max(0, len(found) - 1))
                    output_tail[0] = (output_tail[0] + block) % max(
                        1, len(found)
                    )
                    yield mem(layout.page_of_word(output, out_word), 0, block)
                    stores -= block

        def body(thread: int) -> ThreadBody:
            yield from mask_ops(thread)
            yield Barrier("primes3.masked")
            yield from scan_ops(thread)

        return [body(t) for t in range(ctx.n_threads)]
