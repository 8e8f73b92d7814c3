"""Step-level training benchmark for the DGS parameter-server system.

Run ``python3 stepbench/run.py --help``; see ``stepbench/README.md``.
"""
