"""The repository benchmark: zoo, sweep and serve workloads (see README.md)."""
