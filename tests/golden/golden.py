#!/usr/bin/env python3
"""Golden outputs: fixed-seed command lines and the SHA-256 of what they
print and write.

    python3 tests/golden/golden.py check NAME --build-dir DIR
    python3 tests/golden/golden.py regen --build-dir DIR

manifest.txt lists one entry per command line. The hand-written lines of
an entry are `entry NAME`, any `input PATH` (a file of the source tree,
copied into the run directory under its base name) and `run BINARY ARGS`
(BINARY relative to the build directory, ARGS split on blanks). The
generated lines record the exit status and the SHA-256 of stdout, of
stderr and of every file the run leaves behind.

Each entry runs in a fresh DIR/golden/NAME with relative paths, so no
absolute path can reach an output, and with every BABOL_* variable
removed from the environment, so the command line alone decides what
runs. `check` runs one entry and exits 1 when anything moved, leaving
the outputs in its run directory for a diff. `regen` reruns every
entry, one per CPU at a time, rewrites the generated lines, and names
every entry that moved.
"""

import argparse
import concurrent.futures
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MANIFEST = os.path.join(HERE, "manifest.txt")


class Entry:
    def __init__(self, name):
        self.name = name
        self.inputs = []
        self.argv = []
        self.recorded = []  # generated lines, as written


def read_manifest():
    """Return (header comment lines, entries in file order)."""
    header, entries = [], []
    with open(MANIFEST, encoding="utf-8") as f:
        for raw in f:
            line = raw.rstrip("\n")
            words = line.split()
            if not words or words[0].startswith("#"):
                if not entries:
                    header.append(line)
                continue
            if words[0] == "entry":
                entries.append(Entry(words[1]))
            elif not entries:
                sys.exit(f"golden: '{line}' comes before any entry")
            elif words[0] == "input":
                entries[-1].inputs.append(words[1])
            elif words[0] == "run":
                entries[-1].argv = words[1:]
            else:
                entries[-1].recorded.append(line.strip())
    names = [e.name for e in entries]
    for e in entries:
        if not e.argv:
            sys.exit(f"golden: entry {e.name} has no run line")
        if names.count(e.name) > 1:
            sys.exit(f"golden: entry {e.name} is listed twice")
    return header, entries


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_entry(entry, build_dir):
    """Run one entry in its own directory; return its generated lines."""
    workdir = os.path.join(build_dir, "golden", entry.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    inputs = set()
    for path in entry.inputs:
        base = os.path.basename(path)
        shutil.copyfile(os.path.join(ROOT, path), os.path.join(workdir, base))
        inputs.add(base)

    env = {k: v for k, v in os.environ.items() if not k.startswith("BABOL_")}
    argv = [os.path.join(os.path.abspath(build_dir), entry.argv[0])]
    proc = subprocess.run(argv + entry.argv[1:], cwd=workdir, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          check=False)
    lines = [f"exit {proc.returncode}",
             f"stdout {sha256(proc.stdout)}",
             f"stderr {sha256(proc.stderr)}"]
    for dirpath, _, files in sorted(os.walk(workdir)):
        for fname in sorted(files):
            full = os.path.join(dirpath, fname)
            rel = os.path.relpath(full, workdir)
            if rel in inputs:
                continue
            with open(full, "rb") as f:
                lines.append(f"file {rel} {sha256(f.read())}")
    with open(os.path.join(workdir, "stdout.txt"), "wb") as f:
        f.write(proc.stdout)
    with open(os.path.join(workdir, "stderr.txt"), "wb") as f:
        f.write(proc.stderr)
    return lines


def check(args):
    _, entries = read_manifest()
    entry = next((e for e in entries if e.name == args.name), None)
    if entry is None:
        sys.exit(f"golden: no entry named {args.name}")
    got = run_entry(entry, args.build_dir)
    if got == entry.recorded:
        print(f"golden {entry.name}: unchanged ({len(got)} outputs)")
        return 0
    print(f"golden {entry.name}: MOVED")
    print(f"  run: {' '.join(entry.argv)}")
    for line in entry.recorded:
        if line not in got:
            print(f"  - {line}")
    for line in got:
        if line not in entry.recorded:
            print(f"  + {line}")
    print(f"  outputs kept in "
          f"{os.path.join(args.build_dir, 'golden', entry.name)}")
    return 1


def regen(args):
    header, entries = read_manifest()
    with concurrent.futures.ThreadPoolExecutor(os.cpu_count()) as pool:
        results = list(pool.map(lambda e: run_entry(e, args.build_dir),
                                entries))
    moved = 0
    for entry, got in zip(entries, results):
        if got != entry.recorded:
            moved += 1
            print(f"moved: {entry.name}" if entry.recorded
                  else f"new: {entry.name}")
        entry.recorded = got

    with open(MANIFEST, "w", encoding="utf-8") as f:
        for line in header:
            f.write(line + "\n")
        for e in entries:
            f.write(f"entry {e.name}\n")
            for path in e.inputs:
                f.write(f"  input {path}\n")
            f.write(f"  run {' '.join(e.argv)}\n")
            for line in e.recorded:
                f.write(f"  {line}\n")
    print(f"{len(entries)} entries run, {moved} moved; wrote {MANIFEST}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("check", help="run one entry against the manifest")
    c.add_argument("name")
    c.add_argument("--build-dir", required=True)
    r = sub.add_parser("regen", help="rerun all entries, rewrite the manifest")
    r.add_argument("--build-dir", required=True)
    args = ap.parse_args()
    return check(args) if args.mode == "check" else regen(args)


if __name__ == "__main__":
    sys.exit(main())
