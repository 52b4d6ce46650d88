"""Simulation and exact verification of random walks with counterbalanced steps."""

__version__ = "0.1.0"
