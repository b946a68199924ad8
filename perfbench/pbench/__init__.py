"""Whole-stack benchmark for the idiom-matching pipeline.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md`` for
the workloads, the metrics and how each layer metric relates to the
end-to-end ones.
"""
