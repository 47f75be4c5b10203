"""``cli serve`` with the benchmark's span wrappers installed.

    python -m benchmarks.kosr.traced_server --spans-out FILE serve ...

Everything after ``--spans-out FILE`` goes to ``repro.cli.main``
unchanged, so the traced server runs the CLI's own code path; the spans
are written when the server exits.
"""

from __future__ import annotations

import sys
from typing import List

from benchmarks.kosr.trace import SpanRecorder, install_server_wrappers


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        print(__doc__, file=sys.stderr)
        return 2
    import repro.cli

    recorder = SpanRecorder()
    install_server_wrappers(recorder)
    try:
        return repro.cli.main(argv[2:])
    finally:
        recorder.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
