"""Golden op streams: every workload's full per-thread op sequence, pinned.

The bodies are free to take counts from tables and to re-yield frozen
ops they have already built (DESIGN.md §5.7), but the *stream* — every
op's type and fields, in order, per thread — is behaviour.  The digests
below were taken at commit 53d807d (the parent of the PR that moved the
bodies onto tables and ``reuse_ops``) and shown to pass there before
any file under ``src/`` changed.  ``small()`` is what ``--quick`` runs;
the default sizes are what the Table 3 matrix runs.
"""

import hashlib

import pytest

from repro.machine.config import MachineConfig
from repro.vm.address_space import AddressSpace
from repro.workloads import (
    TABLE_3_WORKLOADS,
    PlyTrace,
    Primes2,
    Primes3,
    small_workloads,
)
from repro.workloads.base import BuildContext


def workloads_at(size):
    """The eight Table 3 workloads plus the three variants, at *size*."""
    if size == "small":
        made = dict(small_workloads())
    else:
        made = {name: factory() for name, factory in TABLE_3_WORKLOADS.items()}
    made["Primes2-shared"] = Primes2(
        made["Primes2"].limit, private_divisors=False
    )
    made["Primes3-pragma"] = Primes3(made["Primes3"].limit, use_pragmas=True)
    made["PlyTrace-packed"] = PlyTrace(
        made["PlyTrace"].n_polygons, padded_framebuffer=False
    )
    return made


def stream_digest(workload, n_threads):
    """sha256 over each thread's op reprs (type and every field); op count."""
    ctx = BuildContext(
        space=AddressSpace(name=workload.name, first_vpage=0x100),
        n_threads=n_threads,
        n_processors=n_threads,
        machine_config=MachineConfig(n_processors=n_threads),
    )
    digest = hashlib.sha256()
    ops = 0
    for index, body in enumerate(workload.build(ctx)):
        digest.update(f"thread {index}\n".encode())
        for op in body:
            digest.update(repr(op).encode())
            ops += 1
    return digest.hexdigest()[:16], ops


#: (size, workload, n_threads) -> (sha256[:16], ops), from commit 53d807d.
GOLDEN = {
    ("small", "ParMult", 1): ("e6ba2e28bc3d702a", 16),
    ("small", "ParMult", 4): ("1fbea6d175a600ac", 16),
    ("small", "ParMult", 7): ("1ba6196bbc036648", 16),
    ("small", "Gfetch", 1): ("f650f19ccdaf1fb1", 21),
    ("small", "Gfetch", 4): ("23c299b6034ac97e", 36),
    ("small", "Gfetch", 7): ("a9e0913b68c81fea", 56),
    ("small", "IMatMult", 1): ("19eac2e7ac0c4b13", 100),
    ("small", "IMatMult", 4): ("e9b441ecfade520a", 103),
    ("small", "IMatMult", 7): ("1241b3c06e98e995", 106),
    ("small", "Primes1", 1): ("e9225b5f272c6fef", 128),
    ("small", "Primes1", 4): ("f82e15b450f74787", 128),
    ("small", "Primes1", 7): ("66f5e7b7eae347d4", 128),
    ("small", "Primes2", 1): ("73a910f4a32958d3", 186),
    ("small", "Primes2", 4): ("c417507d50b69dd8", 220),
    ("small", "Primes2", 7): ("9cdc1e019589c927", 224),
    ("small", "Primes3", 1): ("39229729b35e7d64", 2893),
    ("small", "Primes3", 4): ("76580212c8c4f2d2", 2897),
    ("small", "Primes3", 7): ("d1f3e4851e286e57", 2898),
    ("small", "FFT", 1): ("feaca17f5edd6503", 469),
    ("small", "FFT", 4): ("15babb11be0b000d", 475),
    ("small", "FFT", 7): ("0c200854bb7df88b", 493),
    ("small", "PlyTrace", 1): ("de058a98e675be75", 2406),
    ("small", "PlyTrace", 4): ("23f625f98e4ad9df", 2409),
    ("small", "PlyTrace", 7): ("27b192e799ec057a", 2412),
    ("small", "Primes2-shared", 1): ("633dd500f4bbffdd", 160),
    ("small", "Primes2-shared", 4): ("1812383cb805ef74", 160),
    ("small", "Primes2-shared", 7): ("000cc820984b2a78", 160),
    ("small", "Primes3-pragma", 1): ("39229729b35e7d64", 2893),
    ("small", "Primes3-pragma", 4): ("76580212c8c4f2d2", 2897),
    ("small", "Primes3-pragma", 7): ("d1f3e4851e286e57", 2898),
    ("small", "PlyTrace-packed", 1): ("97a1e264c91c239a", 2006),
    ("small", "PlyTrace-packed", 4): ("4487dbdc13d38485", 2009),
    ("small", "PlyTrace-packed", 7): ("a7ed6f4ba5aa77af", 2012),
    ("default", "ParMult", 1): ("bca6c43d7887e550", 240),
    ("default", "ParMult", 7): ("c75cd42b23cf5c72", 240),
    ("default", "Gfetch", 1): ("7a48abc6697406b6", 137),
    ("default", "Gfetch", 7): ("8785ab4da8848e56", 245),
    ("default", "IMatMult", 1): ("fa6b31eb26c4400d", 8682),
    ("default", "IMatMult", 7): ("962cf74e391d85fc", 8688),
    ("default", "Primes1", 1): ("44dfff92afdd9293", 6252),
    ("default", "Primes1", 7): ("b57c1c55024f2852", 6252),
    ("default", "Primes2", 1): ("d0bf93ac6c7d2d2d", 7977),
    ("default", "Primes2", 7): ("d579da18ab2cf074", 8781),
    ("default", "Primes3", 1): ("c2a2ccf88e8fd2a0", 176689),
    ("default", "Primes3", 7): ("51c590997dd1efc9", 176694),
    ("default", "FFT", 1): ("1284d61e212d3320", 47235),
    ("default", "FFT", 7): ("12de4da8fd911cd7", 48015),
    ("default", "PlyTrace", 1): ("cef465f613457e48", 36049),
    ("default", "PlyTrace", 7): ("f007268ed1915513", 36055),
    ("default", "Primes2-shared", 1): ("2a5c5f30bfad05b0", 7815),
    ("default", "Primes2-shared", 7): ("8c24edab01f918cc", 7815),
    ("default", "Primes3-pragma", 1): ("c2a2ccf88e8fd2a0", 176689),
    ("default", "Primes3-pragma", 7): ("51c590997dd1efc9", 176694),
    ("default", "PlyTrace-packed", 1): ("bb28571fddef0f40", 30049),
    ("default", "PlyTrace-packed", 7): ("e09f73a64ad1f86c", 30055),
}


@pytest.mark.parametrize(
    "size, name, n_threads", sorted(GOLDEN), ids=str
)
def test_op_stream_matches_the_parent_commit(size, name, n_threads):
    workload = workloads_at(size)[name]
    assert stream_digest(workload, n_threads) == GOLDEN[(size, name, n_threads)]


def test_golden_covers_every_workload_and_variant():
    names = set(workloads_at("small"))
    assert len(names) == 11
    for size, threads in (("small", (1, 4, 7)), ("default", (1, 7))):
        assert {
            (name, n) for s, name, n in GOLDEN if s == size
        } == {(name, n) for name in names for n in threads}
