"""The repo's committed benchmark: four workloads, end-to-end and per-layer.

See ``perf/README.md``.  Everything here measures ``repro`` from outside, by
timing calls into its public functions; nothing under ``src/`` imports it.
"""
