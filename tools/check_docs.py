#!/usr/bin/env python3
"""Markdown link-and-anchor checker for README.md and docs/.

Verifies that every relative link in the repo's markdown resolves to an
existing file, that every fragment (`file.md#anchor`, `#anchor`)
matches a heading in the target file under GitHub's slugging rules, and
that the cross-references in REQUIRED_LINKS are present. It also checks
that every `--flag` on a `./build/quickstart` command line inside a
fenced code block of README.md or docs/ appears in quickstart's usage
string (examples/quickstart.cpp), so a deleted flag cannot linger in a
documented command, and that every backticked `tests/....cpp` path in
README.md and docs/ exists; where a backticked name opens the
parenthetical after such a path (`Case`, `Suite.Case` or `Suite.*`), it
must name a TEST in that file, so renaming or dropping a cited test fails
until the citation is updated. Run from anywhere:

    python3 tools/check_docs.py

Exit code 0 when every link resolves, 1 otherwise (CI fails the build).
External (scheme://) links are not fetched — this guards repo-internal
cross-references against rot, not the internet.
"""
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The documentation surface: top-level markdown plus everything in docs/.
DOC_GLOBS = [
    os.path.join(REPO, name)
    for name in sorted(os.listdir(REPO))
    if name.endswith(".md")
] + [
    os.path.join(REPO, "docs", name)
    for name in sorted(os.listdir(os.path.join(REPO, "docs")))
    if name.endswith(".md")
]

# Cross-references that must be present, not merely resolve:
# (document, link target as written in it).
REQUIRED_LINKS = [
    ("README.md", "bench/e2e/README.md"),
    ("docs/perf.md", "../bench/e2e/README.md"),
]

# Documents whose quickstart command lines must match its usage string.
QUICKSTART_DOCS = [os.path.join(REPO, "README.md")] + [
    doc for doc in DOC_GLOBS
    if os.path.dirname(doc) == os.path.join(REPO, "docs")
]
QUICKSTART_SRC = os.path.join(REPO, "examples", "quickstart.cpp")

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
STRING_LITERAL_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
# Where one shell command ends: a trailing comment or a control operator.
COMMAND_END_RE = re.compile(r"\s(?:#|&&|\|\||[|;&])(?:\s|$)")
# A cited test file, and the backticked name opening its parenthetical.
TEST_CITE_RE = re.compile(r"`(tests/[^`\s]+\.cpp)`(?:\s*\(`([^`]+)`)?")
TEST_DEF_RE = re.compile(r"^\s*TEST(?:_F|_P)?\(\s*(\w+)\s*,\s*(\w+)\s*\)",
                         re.MULTILINE)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: strip markup, lowercase, drop punctuation,
    spaces to hyphens."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # inline code
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = re.sub(r"[*_]", "", text)                      # emphasis
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: str) -> set:
    anchors = set()
    seen = {}
    in_fence = False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if CODE_FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            m = HEADING_RE.match(line)
            if not m:
                continue
            slug = github_slug(m.group(2))
            # GitHub de-duplicates repeated headings with -1, -2, ...
            if slug in seen:
                seen[slug] += 1
                slug = f"{slug}-{seen[slug]}"
            else:
                seen[slug] = 0
            anchors.add(slug)
    return anchors


def check():
    errors = []
    anchor_cache = {}
    found = set()
    for doc in DOC_GLOBS:
        rel_doc = os.path.relpath(doc, REPO)
        in_fence = False
        with open(doc, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if CODE_FENCE_RE.match(line):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                for target in LINK_RE.findall(line):
                    found.add((rel_doc, target.partition("#")[0]))
                    if re.match(r"^[a-z][a-z0-9+.-]*://", target) or \
                            target.startswith("mailto:"):
                        continue  # external
                    path_part, _, fragment = target.partition("#")
                    if path_part:
                        resolved = os.path.normpath(
                            os.path.join(os.path.dirname(doc), path_part))
                        if not os.path.exists(resolved):
                            errors.append(
                                f"{rel_doc}:{lineno}: broken link "
                                f"-> {target}")
                            continue
                    else:
                        resolved = doc
                    if fragment:
                        if not resolved.endswith(".md"):
                            continue  # anchors only checked in markdown
                        if resolved not in anchor_cache:
                            anchor_cache[resolved] = anchors_of(resolved)
                        if fragment not in anchor_cache[resolved]:
                            errors.append(
                                f"{rel_doc}:{lineno}: missing anchor "
                                f"#{fragment} in "
                                f"{os.path.relpath(resolved, REPO)}")
    for doc, target in REQUIRED_LINKS:
        if (doc, target) not in found:
            errors.append(f"{doc}: required link to {target} is missing")
    return errors


def quickstart_usage_flags() -> set:
    """Flags in the usage string quickstart prints for a bad mode: the
    string literals of the statement that starts `"usage: quickstart [`."""
    with open(QUICKSTART_SRC, encoding="utf-8") as fh:
        src = fh.read()
    start = src.find('"usage: quickstart [')
    if start < 0:
        return set()
    statement = src[start:src.find(";", start)]
    return set(FLAG_RE.findall("".join(STRING_LITERAL_RE.findall(statement))))


def check_quickstart_flags():
    usage = quickstart_usage_flags()
    if not usage:
        return ["examples/quickstart.cpp: usage string not found"]
    errors = []
    for doc in QUICKSTART_DOCS:
        rel_doc = os.path.relpath(doc, REPO)
        in_fence = False
        with open(doc, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if CODE_FENCE_RE.match(line):
                    in_fence = not in_fence
                    continue
                at = line.find("./build/quickstart")
                if not in_fence or at < 0:
                    continue
                command = COMMAND_END_RE.split(line[at:].rstrip("\n"))[0]
                for flag in FLAG_RE.findall(command):
                    if flag not in usage:
                        errors.append(
                            f"{rel_doc}:{lineno}: {flag} is not in "
                            f"quickstart's usage string")
    return errors


def tests_defined(path: str) -> set:
    """(suite, case) of every TEST/TEST_F/TEST_P in a test source."""
    with open(path, encoding="utf-8") as fh:
        return set(TEST_DEF_RE.findall(fh.read()))


def cites(name: str, tests: set) -> bool:
    """Whether a cited `Case`, `Suite.Case` or `Suite.*` names a test."""
    suite, dot, case = name.rpartition(".")
    if not dot:
        return any(c == name for _, c in tests)
    return any(s == suite and case in ("*", c) for s, c in tests)


def check_test_citations():
    errors = []
    for doc in QUICKSTART_DOCS:
        rel_doc = os.path.relpath(doc, REPO)
        with open(doc, encoding="utf-8") as fh:
            lines = fh.readlines()
        # Prose only, joined so a citation may wrap across lines.
        in_fence = False
        prose = []
        for line in lines:
            if CODE_FENCE_RE.match(line):
                in_fence = not in_fence
            prose.append("\n" if in_fence or CODE_FENCE_RE.match(line)
                         else line)
        text = "".join(prose)
        for m in TEST_CITE_RE.finditer(text):
            lineno = text.count("\n", 0, m.start()) + 1
            path, name = m.group(1), m.group(2)
            resolved = os.path.join(REPO, path)
            if not os.path.isfile(resolved):
                errors.append(f"{rel_doc}:{lineno}: cited {path} does not "
                              f"exist")
                continue
            if name and not cites(name, tests_defined(resolved)):
                errors.append(f"{rel_doc}:{lineno}: {name} is not a TEST "
                              f"in {path}")
    return errors


def main():
    errors = check() + check_quickstart_flags() + check_test_citations()
    for err in errors:
        print(err)
    checked = len(DOC_GLOBS)
    if errors:
        print(f"check_docs: {len(errors)} broken reference(s) "
              f"across {checked} file(s)")
        return 1
    print(f"check_docs: OK ({checked} markdown files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
