"""Run one chaink0 CLI command under a tracing Recorder.

    python3 bench/child.py spans|counts SUMMARY_FILE ARGS...

Behaves like `python3 -m chaink0.cli ARGS...` (same output, same exit
status) and writes the recorder's summary to SUMMARY_FILE as JSON.
"""
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import chaink0.cli  # noqa: E402
from tracing import Recorder  # noqa: E402


def main() -> int:
    mode, summary_file, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = Recorder(mode)
    try:
        with rec:
            return chaink0.cli.main(argv)
    finally:
        Path(summary_file).write_text(json.dumps(rec.summary()))


if __name__ == "__main__":
    sys.exit(main())
