"""Chunked episodic memory with two-stage attention, on plain NumPy.

The pieces compose bottom-up: a reverse-mode tape (`tensor`), detached
chunked storage (`memory`), the attention blocks (`attention`), full
models and baselines (`stack`), task generators (`tasks`), and a
deterministic training loop (`training`).
"""
