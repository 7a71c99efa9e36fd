"""The paper's contribution: automatic NUMA page placement.

Local memories are managed as a cache of global memory with a
directory-based ownership protocol (Tables 1-2 of the paper), and a
pluggable policy decides per-fault whether a page may be cached locally.
"""
