"""Planted RN004: a mutable default argument."""


def collect(item, into=[]):
    into.append(item)
    return into
