"""Programmable wireless environment wavefront-replication simulator."""

__version__ = "0.1.0"
