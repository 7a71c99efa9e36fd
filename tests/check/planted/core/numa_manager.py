"""Planted RN005: the funnel module assigns ``.state`` without announcing it."""

from repro.core.state import PageState


def sneak(entry):
    entry.state = PageState.READ_ONLY
