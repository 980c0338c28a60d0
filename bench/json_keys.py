"""Check that bench JSON files keep the layout of the committed ones.

Usage: python3 bench/json_keys.py RUN_DIR REF_DIR NAME...

For each NAME, RUN_DIR/NAME must parse as JSON and list the same key
paths, in the same order of first appearance, as REF_DIR/NAME.  A key
path names a key through the objects and lists above it ("points[].n"),
so lists of any length compare equal.  Exits 1 on the first mismatch.
"""

import json
import sys


def key_paths(value, prefix=""):
    paths = []
    if isinstance(value, dict):
        for key, child in value.items():
            path = prefix + "." + key if prefix else key
            paths.append(path)
            paths.extend(key_paths(child, path))
    elif isinstance(value, list):
        for child in value:
            paths.extend(key_paths(child, prefix + "[]"))
    return list(dict.fromkeys(paths))


def main():
    run_dir, ref_dir, names = sys.argv[1], sys.argv[2], sys.argv[3:]
    for name in names:
        with open(f"{ref_dir}/{name}") as f:
            want = key_paths(json.load(f))
        try:
            with open(f"{run_dir}/{name}") as f:
                got = key_paths(json.load(f))
        except (OSError, ValueError) as e:
            sys.exit(f"{name}: {e}")
        if got != want:
            missing = [p for p in want if p not in got]
            extra = [p for p in got if p not in want]
            sys.exit(f"{name}: key paths differ (missing {missing}, extra {extra}, "
                     "or out of order)")
    print(f"json keys: {len(names)} files match")


if __name__ == "__main__":
    main()
