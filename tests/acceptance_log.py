"""Verdicts of the acceptance checks, written by test_acceptance and
printed by conftest in the terminal summary.

They live in a module of their own because `import conftest` finds
whichever conftest.py pytest loaded last once several test directories
(tests/ and perfbench/tests/) are collected in one run.
"""

ACCEPTANCE: dict = {}
