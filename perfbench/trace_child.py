"""One traced CLI request in a fresh process, for the cli-cold workload.

    python trace_child.py STATS_FILE ARGV...

Imports uhfree.cli (from PYTHONPATH), installs the tracer, runs
``uhfree.cli.main(ARGV)`` as the request span, writes the tracer's summary
to STATS_FILE and exits with main's exit code.
"""

import json
import sys
from pathlib import Path

import tracer as tracing


def main() -> int:
    stats_file, argv = sys.argv[1], sys.argv[2:]
    import uhfree.cli

    t = tracing.Tracer()
    t.install()
    try:
        code = t.request(uhfree.cli.main, argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        t.uninstall()
        Path(stats_file).write_text(json.dumps(t.export()))
    return code


if __name__ == "__main__":
    sys.exit(main())
