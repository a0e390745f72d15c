"""Compare the CLI of two checkouts on a list of command lines.

    python3 tools/cli_compare.py PARENT_DIR CHANGE_DIR --lines tools/cli_lines.txt

Each line of the lines file is one `projqde` command line, split as a shell
would split it; blank lines and lines starting with '#' are skipped.  Every
command line runs in a fresh `python3 -m projqde.cli` process in each
checkout, with `src/` of that checkout on PYTHONPATH, and the two runs'
stdout, stderr and exit code are compared byte for byte.  The checkout's own
path is replaced by `<checkout>` first, since numpy's warnings print the path
of the file that raised them.  Prints each line whose runs differ and in what,
then a count; exits 1 if any line differs.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
from pathlib import Path


def read_lines(path: Path) -> list[str]:
    lines = (line.strip() for line in path.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def run(checkout: Path, line: str) -> tuple[bytes, bytes, int]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "projqde.cli", *shlex.split(line)],
        cwd=checkout, env=env, capture_output=True, stdin=subprocess.DEVNULL,
    )
    here = str(checkout).encode()
    return proc.stdout.replace(here, b"<checkout>"), proc.stderr.replace(here, b"<checkout>"), proc.returncode


def first_line(text: bytes) -> str:
    return text.decode(errors="replace").partition("\n")[0]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--lines", type=Path, required=True, help="one command line per line")
    args = ap.parse_args()
    lines = read_lines(args.lines)
    differ = 0
    for line in lines:
        (out_a, err_a, rc_a), (out_b, err_b, rc_b) = (run(c.resolve(), line) for c in (args.parent, args.change))
        what = [name for name, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)) if a != b]
        if rc_a != rc_b:
            what.append(f"exit {rc_a} -> {rc_b}")
        if what:
            differ += 1
            print(f"DIFFERS ({', '.join(what)}): {line}")
            if err_a != err_b:
                print(f"  parent stderr: {first_line(err_a)}")
                print(f"  change stderr: {first_line(err_b)}")
    print(f"{len(lines) - differ} of {len(lines)} command lines identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
