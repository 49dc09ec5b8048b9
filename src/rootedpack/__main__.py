"""`python -m rootedpack ...` runs the `rootedpack` command line."""

from .cli import main

if __name__ == "__main__":
    main()
