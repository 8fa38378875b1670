"""``python -m coverball``: the same command line as the ``coverball`` script."""

from .cli import main

if __name__ == "__main__":
    main()
