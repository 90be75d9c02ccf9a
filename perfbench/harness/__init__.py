"""Benchmark harness for the pSigene reproduction (see ../NOTES.md)."""
