#!/usr/bin/env python3
"""Fail when a library header under src/ has no user.

A header counts as used when some file under src/, tools/, bench/ or
perfbench/ includes it, other than its own .cpp and the src/gossip.hpp
umbrella. A header that only its implementation and the umbrella include
is code that nothing runs: delete it (and its tests) rather than keep it
compiling. The umbrella itself is exempt.

  python3 tools/check_dead_headers.py [REPO_ROOT]

Prints each dead header and exits 1 if there is one; exits 0 otherwise.
"""

import pathlib
import re
import sys

SCANNED = ("src", "tools", "bench", "perfbench")
SOURCE_SUFFIXES = {".hpp", ".cpp"}
UMBRELLA = "gossip.hpp"
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    src = root / "src"
    headers = {p.relative_to(src).as_posix()
               for p in src.rglob("*.hpp")} - {UMBRELLA}

    users = {h: set() for h in headers}
    for top in SCANNED:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            text = path.read_text(encoding="utf-8", errors="replace")
            for name in INCLUDE.findall(text):
                if name in users:
                    users[name].add(rel)

    dead = []
    for header in sorted(headers):
        own_cpp = "src/" + header[: -len(".hpp")] + ".cpp"
        if not users[header] - {own_cpp, "src/" + UMBRELLA}:
            dead.append(header)

    for header in dead:
        print(f"dead header: src/{header} (included only by its own .cpp "
              f"and/or the {UMBRELLA} umbrella)")
    if dead:
        return 1
    print(f"all {len(headers)} headers under src/ have a user")
    return 0


if __name__ == "__main__":
    sys.exit(main())
