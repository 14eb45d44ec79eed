"""``python -m refmatch``: the same command line as the ``refmatch`` script."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
