import gc
import sys

from . import cli


def main() -> int:
    """python -m curvebetti and the installed command: freeze what
    start-up and importing cli built, which lives until exit, so that the
    cyclic collector, above all at exit, no longer traverses it."""
    gc.freeze()
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
