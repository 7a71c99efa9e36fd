"""Planted RN008: a directory entry's state written under no guard."""


def rogue(entry):
    entry.state = 1
