"""Run the ``credal`` command with the per-layer tracer installed.

    python perfbench/traced_cli.py TRACE_OUT.json <credal arguments...>

Behaves like ``python -m credalfans.cli <credal arguments...>`` (same
output, same exit code) and writes the tracer's aggregates to TRACE_OUT.json
when the command returns.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracer import Tracer  # noqa: E402


def main(argv):
    out, args = argv[0], argv[1:]
    from credalfans import cli

    tracer = Tracer(keep_spans=2_000)
    tracer.install()
    try:
        code = cli.main(args)
    finally:
        tracer.uninstall()
        tracer.dump(out, {})
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
