"""End-to-end, per-layer benchmark of the translator (see README.md)."""
