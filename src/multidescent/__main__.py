"""``python -m multidescent``: the same command line as ``multidescent``."""
from .cli import console

if __name__ == "__main__":
    console()
