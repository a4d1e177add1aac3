"""Repository benchmark: one command per workload (``plan`` and
``serve-spread`` are declared in ``BENCHMARK.json``; ``serve-grown`` runs
but is not declared); see ``README.md`` in this directory."""
