"""Planted RN006: an unseeded random.Random()."""

import random


def rng():
    return random.Random()
