"""Check every stored job digest of perfbench/references.json in-process.

Usage: python tools/check_references.py

Runs each job of the file through partition_diamonds.cli.main in this
interpreter and compares its exit code and the sha256 of its stdout with
the stored ones.  Prints one line per mismatch and a summary, and exits 1
on any mismatch.  The file is only read; regenerating it is
perfbench/make_refs.py's job.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCES = ROOT / "perfbench" / "references.json"
sys.path.insert(0, str(ROOT / "src"))

from partition_diamonds import cli  # noqa: E402  (needs the path above)


def run(argv: list) -> tuple:
    """(exit code, stdout bytes) of one in-process cli.main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # cli.parse_args usage errors
            code = exc.code
    return code, out.getvalue().encode()


def main() -> int:
    jobs = json.loads(REFERENCES.read_text())["jobs"]
    bad = 0
    for key, want in jobs.items():
        code, out = run(key.split())
        digest = hashlib.sha256(out).hexdigest()
        if code != want["exit"] or digest != want["sha256"]:
            bad += 1
            print(f"MISMATCH {key}: exit {code} (want {want['exit']}), "
                  f"sha256 {digest[:12]} (want {want['sha256'][:12]})")
    print(f"{len(jobs) - bad}/{len(jobs)} jobs match {REFERENCES.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
