#!/usr/bin/env python3
"""Report a profile written by sigprof.so.

    python3 tools/sigprof/report.py run.prof [--top N] [--callers PATTERN] [--leaf PATTERN] [--depth K]

Three tables, each as a share of all samples:
  inclusive  samples with the function anywhere on the stack (inlined
             frames included, recursion counted once)
  self       samples whose innermost frame is the function
  nearest    samples by the innermost frame whose name starts with
             fortika_: where this repository's code was, whatever std
             or libc function it was in at the time
With --callers PATTERN (a regular expression) a fourth table instead:
  callers    the samples whose nearest fortika_* frame matches PATTERN,
             by that frame and the next K (--depth, default 2)
             fortika_* frames above it: whose put_slice, whose mix
With --leaf PATTERN the same table, of the samples with a frame below
their nearest fortika_* frame (std, alloc, libc, inlined or not) that
matches PATTERN: whose BTreeMap walk, whose malloc. Given both, a sample
must pass both.
Needs binutils' addr2line and the profiled binaries where they were.
"""
import collections
import re
import subprocess
import sys

PREFIX = "fortika_"


def load(path):
    stacks, maps, in_maps = [], [], False
    for line in open(path):
        if line.startswith("# maps"):
            in_maps = True
        elif in_maps:
            f = line.split()
            if len(f) >= 6 and f[5].startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, f[5]))
        elif not line.startswith("#") and line.strip():
            stacks.append([int(a, 16) for a in line.split()])
    return stacks, maps


def is_pie(path):
    with open(path, "rb") as f:
        return f.read(18)[16] == 3  # e_type: ET_DYN


def symbolize(stacks, maps):
    """{address: [innermost function, ..., outermost inlined-into function]}"""
    load_at = {}
    for lo, _, path in maps:
        load_at[path] = min(lo, load_at.get(path, lo))
    by_file = collections.defaultdict(dict)
    for stack in stacks:
        for depth, addr in enumerate(stack):
            for lo, hi, path in maps:
                if lo <= addr < hi:
                    # A return address belongs to the call before it.
                    by_file[path][addr] = addr - (1 if depth else 0)
                    break
    names = {}
    for path, addrs in by_file.items():
        order = list(addrs)
        lib = f"[{path.rsplit('/', 1)[-1]}]"
        try:
            # An address in the file is the one in memory less the load
            # address of a position-independent object, itself otherwise.
            base = load_at[path] if is_pie(path) else 0
        except (OSError, IndexError):
            # Gone since the run, or never a file ("/memfd:x (deleted)").
            names.update((a, [lib]) for a in order)
            continue
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", path] + [hex(addrs[a] - base) for a in order],
            capture_output=True, text=True, check=True).stdout.splitlines()
        # Per address: its line, then (function, file:line) pairs from
        # the innermost inlined frame outwards.
        i = -1
        for line in out:
            if re.fullmatch(r"0x[0-9a-f]{16}", line):
                i += 1
                names[order[i]] = []
            else:
                names[order[i]].append(line)
        for a in order:
            names[a] = [lib if f == "??" else re.sub(r"::h[0-9a-f]{16}$", "", f)
                        for f in names[a][0::2]]
    return names


def table(title, counts, total, top):
    print(f"\n{title}")
    for name, n in counts.most_common(top):
        print(f"  {100 * n / total:5.1f} %  {n:6d}  {name}")


def main():
    args = sys.argv[1:]

    def option(flag, default):
        return args[args.index(flag) + 1] if flag in args else default

    top = int(option("--top", 25))
    pattern, depth = option("--callers", None), int(option("--depth", 2))
    leaf = option("--leaf", None)
    stacks, maps = load(args[0])
    names = symbolize(stacks, maps)
    inclusive, self_, nearest, callers = (collections.Counter() for _ in range(4))
    for stack in stacks:
        frames = [f for addr in stack for f in names.get(addr, ["??"])]
        inclusive.update(set(frames))
        self_[frames[0] if frames else "??"] += 1
        ours = [f for f in frames if f.startswith(PREFIX)]
        nearest[ours[0] if ours else "(none)"] += 1
        if not ours or not (pattern or leaf):
            continue
        below = frames[:frames.index(ours[0])]
        if pattern and not re.search(pattern, ours[0]):
            continue
        if leaf and not any(re.search(leaf, f) for f in below):
            continue
        callers[" <- ".join(ours[:1 + depth])] += 1
    print(f"{len(stacks)} samples from {args[0]}")
    if pattern or leaf:
        matched = sum(callers.values())
        what = [f"nearest {PREFIX}* frame matching /{pattern}/"] if pattern else []
        what += [f"a frame below the nearest {PREFIX}* frame matching /{leaf}/"] if leaf else []
        title = f"samples with {' and '.join(what)}, by caller: {matched} samples"
        table(title, callers, len(stacks), top)
        return
    table("inclusive", inclusive, len(stacks), top)
    table("self", self_, len(stacks), top)
    table(f"nearest {PREFIX}* frame", nearest, len(stacks), top)


if __name__ == "__main__":
    main()
