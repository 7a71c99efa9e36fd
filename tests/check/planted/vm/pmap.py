"""Planted RN010: an MMU mutation with no paired TLB shootdown.

``vm/pmap.py`` is on RN007's allowlist, so the finding is RN010's alone.
"""


def unmap(cpu, vpage):
    cpu.mmu.remove(vpage)
