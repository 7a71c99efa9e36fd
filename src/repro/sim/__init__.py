"""Simulation engine, operations, and the run/measure harness."""
