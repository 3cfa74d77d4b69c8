"""``python -m tropkp``: the command line front end of ``tropkp.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
