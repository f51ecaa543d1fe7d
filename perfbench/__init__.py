"""Benchmark harness for occakit: workloads, output checks and layer tracing."""
