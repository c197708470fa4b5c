"""The repo's end-to-end benchmark: five workloads through ``flock.connect()``.

See ``README.md`` in this directory; ``run.py`` is the one command.
"""
