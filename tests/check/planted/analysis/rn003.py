"""Planted RN003: a bare except."""


def swallow(step):
    try:
        step()
    except:
        pass
