"""Traced run of the nsstab CLI in this process.

    python3 trace_child.py <spans.npz> <nsstab CLI arguments...>

Installs the tracer, runs `nsstab.cli.main` on the remaining arguments,
writes the spans once at the end and exits with the CLI's exit code.
"""

import sys

from tracer import Tracer


def main(argv) -> int:
    import nsstab.cli
    tracer = Tracer()
    tracer.install()
    code = nsstab.cli.main(argv[1:])
    tracer.save(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
