from setuptools import setup

# All metadata lives in pyproject.toml; this stub exists for legacy tooling.
setup()
