"""Count the lines of each genlab module, now and at a git revision.

Counts every `src/genlab/*.py` module of this checkout the way `wc -l` does
(newline characters) and prints one JSON line with the count per module and
the total. With --ref REV it also counts each module as committed at REV,
through `git show REV:path`, and adds REV's counts, its total and the
per-module and total deltas (now minus REV). A module that exists on one side
only counts 0 on the other. Uses only the standard library.

    python3 tools/srclines.py [--ref REV]
"""
import argparse
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/genlab"


def _git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, check=True
    ).stdout


def counts_now() -> dict[str, int]:
    """{module file name: newline count} for this checkout's modules."""
    return {
        p.name: p.read_bytes().count(b"\n")
        for p in sorted((ROOT / PACKAGE).glob("*.py"))
    }


def counts_at(rev: str) -> dict[str, int]:
    """{module file name: newline count} for the modules committed at `rev`
    (none when `rev` has no package directory)."""
    listed = _git("ls-tree", "--name-only", rev, f"{PACKAGE}/").decode().split("\n")
    return {
        Path(path).name: _git("show", f"{rev}:{path}").count(b"\n")
        for path in sorted(listed) if path.endswith(".py")
    }


def report(ref: str | None = None) -> dict:
    now = counts_now()
    out: dict = {"lines": now, "total": sum(now.values())}
    if ref is not None:
        then = counts_at(ref)
        names = sorted(now.keys() | then.keys())
        out.update(
            ref=ref,
            ref_lines=then,
            ref_total=sum(then.values()),
            delta={n: now.get(n, 0) - then.get(n, 0) for n in names},
            total_delta=out["total"] - sum(then.values()),
        )
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", help="git revision to count against, e.g. HEAD~1")
    args = parser.parse_args()
    try:
        print(json.dumps(report(args.ref)))
    except subprocess.CalledProcessError as exc:
        parser.error(f"git {' '.join(exc.cmd[1:])}: {exc.stderr.decode().strip()}")


if __name__ == "__main__":
    main()
