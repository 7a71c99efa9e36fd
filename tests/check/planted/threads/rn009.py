"""Planted RN009: a spin lock acquired and never released."""


def hold(lock):
    lock.acquire()
