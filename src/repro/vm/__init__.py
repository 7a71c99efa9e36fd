"""Mach-style machine-independent virtual memory over the pmap interface.

Tasks own address spaces of page-granular regions backed by VM objects;
logical pages come from a fixed-size pool the size of global memory; the
fault handler resolves references through ``pmap_enter`` with the paper's
min/max-protection and target-processor extensions.
"""
