"""One set-up sample: a fresh interpreter imports hfgdm and runs one op.

Usage: python probe.py SRC_DIR ARGV...

run.py starts this file once per set-up sample and notes the monotonic
clock just before. This process puts SRC_DIR first on sys.path, imports
hfgdm.cli, runs `hfgdm.cli.main(ARGV)` once with its output captured, and
prints the monotonic clock at that moment and the exit code on one line,
then the captured output, so that the parent can both time the set-up and
check the warm-up's output. Its imports are kept to the few the
interpreter has loaded already, so the figure is the program's.
"""

import contextlib
import io
import sys
import time


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from hfgdm import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(sys.argv[2:])
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
    done = time.monotonic()
    sys.stdout.write(f"{done!r} {rc}\n")
    sys.stdout.write(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
