"""The repo benchmark: workloads, tracing, comparison (see bench/README.md)."""
