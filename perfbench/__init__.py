"""Seeded benchmark of exact credal inference; see README.md."""
