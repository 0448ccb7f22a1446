"""``python -m tamperloc``: the same command line as ``tamperloc``."""

from .cli import entry

if __name__ == "__main__":
    entry()
