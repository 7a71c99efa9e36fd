"""Planted RN007: a direct MMU mutation outside machine/ and vm/pmap.py.

The paired invalidate keeps RN010 quiet, so the finding is RN007's alone.
"""


def unmap(cpu, vpage):
    cpu.mmu.remove(vpage)
    cpu.tlb.invalidate(vpage)
