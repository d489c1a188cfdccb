"""The repository benchmark: three workloads, one command.

See ``perfbench/README.md`` for the workloads, the metrics and how to
run it.
"""
