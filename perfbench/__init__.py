"""The repository benchmark: the shipped detector under four workloads.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against the configuration users run (snapshots from
``HdmModel.compile()`` with the constraint classifier and segmentation
automaton, served by ``repro serve`` / ``repro route``), checks every
output, and prints its metrics; see ``perfbench/README.md``.
"""
