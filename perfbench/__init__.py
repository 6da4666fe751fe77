"""REPOSE benchmark: end-to-end query latency, set-up time and index size,
checked against a brute-force oracle, plus a traced per-layer replay.
See README.md."""
