"""Planted RN011: a bus event emitted inside a spin-lock critical region."""


def announce(lock, bus, page_id):
    lock.acquire()
    bus.emit_page_freed(page_id)
    lock.release()
