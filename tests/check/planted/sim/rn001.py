"""Planted RN001: a wall-clock read in simulated-time code."""

import time


def stamp():
    return time.time()
