"""Command line entry point for ``python -m toricpick``."""

from .cli import entry

if __name__ == "__main__":
    entry()
