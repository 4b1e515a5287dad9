"""Experiment drivers behind every table and figure of the paper.

Each driver only returns data; ``repro <command>`` (:mod:`repro.exp.cli`)
renders it.
"""
