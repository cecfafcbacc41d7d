#!/usr/bin/env python3
"""Caller checks for lib/.

Modules: every module of lib/*/*.ml must be reached from bin/ and
examples/ through qualified uses (`M.`, `module X = M`, `open M`,
`include M`), followed through the .ml and .mli of each module reached.
A module that only a comment, a string or an unreached module names fails.

Values: every `val` of lib/*/*.mli must be named in some OCaml file of lib,
bin, bench, examples, test or perfbench other than its own .ml/.mli.

Comments and string literals are stripped before either search.  Run from
the repository root: python3 scripts/callers.py (exit 1 on any finding).
"""

import re
import subprocess
import sys

CHAR = re.compile(r"'(?:[^'\\\n]|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")
QUOTED = re.compile(r"\{([a-z_]*)\|")
MODULE = r"[A-Z][\w']*"
QUALIFIED = re.compile(r"\b(%s)\." % MODULE)
NAMED = re.compile(
    r"\b(?:open!?|include|module\s+%s\s*=)\s+(?:%s\.)*(%s)" % (MODULE, MODULE, MODULE)
)
WORD = re.compile(r"[A-Za-z_][\w']*")
VAL = re.compile(r"\bval\s+([a-z_][\w']*)")


def strip(src):
    """The source with comments and string literals blanked, newlines kept."""
    out, i, depth = [], 0, 0
    while i < len(src):
        if src.startswith("(*", i):
            depth, j = depth + 1, i + 2
        elif depth and src.startswith("*)", i):
            depth, j = depth - 1, i + 2
        elif src[i] == '"':
            j = i + 1
            while j < len(src) and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            j += 1
        elif QUOTED.match(src, i):
            m = QUOTED.match(src, i)
            end = src.find("|%s}" % m.group(1), m.end())
            j = len(src) if end < 0 else end + len(m.group(1)) + 2
        else:
            m = CHAR.match(src, i) if src[i] == "'" else None
            j = m.end() if m else i + 1
            if not depth:
                out.append(src[i:j])
                i = j
                continue
        out.append(re.sub(r"[^\n]", " ", src[i:j]))
        i = j
    return "".join(out)


def module_of(path):
    base = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return base[:1].upper() + base[1:]


def main():
    listed = subprocess.run(
        ["git", "ls-files", "lib", "bin", "bench", "examples", "test", "perfbench"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    text = {
        f: strip(open(f, encoding="utf-8").read())
        for f in listed if f.endswith((".ml", ".mli"))
    }
    lib = {}
    for f in text:
        if f.startswith("lib/") and f.count("/") == 2:
            lib.setdefault(module_of(f), []).append(f)
    status = 0

    reached = set()
    todo = [f for f in text if f.startswith(("bin/", "examples/"))]
    while todo:
        t = text[todo.pop()]
        for m in set(QUALIFIED.findall(t)) | set(NAMED.findall(t)):
            if m in lib and m not in reached:
                reached.add(m)
                todo.extend(lib[m])
    for m in sorted(set(lib) - reached):
        print("%s: %s is not reached from bin/ or examples/" % (sorted(lib[m])[0], m))
        status = 1

    words = {f: set(WORD.findall(t)) for f, t in text.items()}
    for m, own in sorted(lib.items()):
        for mli in (f for f in own if f.endswith(".mli")):
            for v in sorted(set(VAL.findall(text[mli]))):
                if not any(v in w for f, w in words.items() if f not in own):
                    print("%s: val %s is named nowhere outside %s" % (mli, v, m))
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
