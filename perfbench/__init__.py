"""The broker benchmark: one closed-loop client driving the package's
public API through the ``serve``, ``churn`` and ``sharded`` workloads
(see ``WORKLOADS.md``; entry point ``run.py``)."""
