"""Scenario runner and trust-scaling accountant."""
