"""Spark substrate: engine bootstrap and Structured Streaming ingestion.

Spark does the set-oriented work: reading the transaction log, ordering
it and shipping it to the driver via Arrow, and the micro-batch file
stream. The sequential peel state stays in the driver-resident
``SpadeEngine``.
"""
from repro.spark.builder import build_engine, edge_rows, engine_from_frame

__all__ = ["build_engine", "edge_rows", "engine_from_frame"]
