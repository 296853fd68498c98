"""Run the invdist CLI with the layer spans of `tracing` installed.

    python3 perfbench/cli_child.py --spans PATH -- verify --suite prop2 ...

Used by the traced cli-cold run: everything after "--" goes to
invdist.cli.main unchanged, and the spans are written to PATH on exit.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main(argv):
    spans = argv[argv.index("--spans") + 1]
    cli_args = argv[argv.index("--") + 1:]
    import invdist.cli

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return invdist.cli.main(cli_args)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
