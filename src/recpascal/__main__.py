"""The process entry: `python -m recpascal` and the `recpascal` script both
run run(), so the two are one program."""
import gc

from .cli import main


def run() -> None:
    """cli.main as a whole process.  On the way out every object still alive
    is frozen, so the interpreter's shutdown collections skip it; atexit,
    the flushing of stdout and stderr and module teardown still run.  Only
    the process entry may do this: a library caller of cli.main keeps its
    collector, and the garbage cycles it makes, as they were."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
