"""Planted RN002: a PageState assignment outside the transition funnel."""

from repro.core.state import PageState


def demote(page):
    page.state = PageState.READ_ONLY
