"""Simulated IBM ACE hardware: CPUs, MMUs, local and global memory, timing.

This package is the lowest layer of the reproduction.  It corresponds to
the physical machine of the paper's Figure 1 — processor modules with
Rosetta MMUs and 8 MB local memories, plus global memory on the IPC bus —
and knows nothing about pages' placement policy.
"""
