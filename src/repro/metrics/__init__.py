"""Metrics: Eq. (1) utilization, timelines, summary statistics."""
