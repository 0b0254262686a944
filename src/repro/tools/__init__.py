"""Operator tooling: cluster introspection and reporting."""
