"""Thread, lock and scheduling substrate (the C-Threads environment)."""
