"""Run one qprime CLI command with spans recorded, for the traced run.

    python3 qbench/trace_child.py SPANS_OUT -- CLI_ARGS...

Installs the wrappers, calls ``qprime.cli.main`` with CLI_ARGS, writes the
spans to SPANS_OUT as JSON and exits with the command's exit code.
"""

import sys

import qprime.cli

from spans import Tracer


def main() -> int:
    spans_out, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit(f"usage: {sys.argv[0]} SPANS_OUT -- CLI_ARGS...")
    tracer = Tracer()
    tracer.install()
    code = qprime.cli.main(argv)
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
