"""Thread and scheduling substrate (the C-Threads environment)."""
