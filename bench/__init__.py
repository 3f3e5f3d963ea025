"""End-to-end benchmark of the seeded study: see ``bench/README.md``.

``python -m bench.run --seed N`` runs every workload and the traced pass;
``python -m bench.compare PARENT CHANGE`` judges two sets of results.
"""
