"""Closed-loop benchmark of the validation suite; see README.md."""
