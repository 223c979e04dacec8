"""Run one traced `qnodes` command: `python bench/cli_child.py SPANS_OUT ARGS...`.

The child installs the tracer, runs the CLI exactly as the `qnodes`
entry point would, writes its spans and counts to SPANS_OUT as JSON and
exits with the CLI's exit code.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import qnodes.cli

    tracer.next_op()
    code = 0
    try:
        qnodes.cli.main(args=argv, prog_name="qnodes")
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
