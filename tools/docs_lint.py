#!/usr/bin/env python3
"""Markdown link checker for README.md and docs/, plus a check that
source comments only cite markdown files that exist.

Fails (exit 1) on any intra-repo markdown link whose target file does
not exist, or whose `#anchor` does not match a heading in the target
document. External links (http/https/mailto) are not fetched.

It also fails when a comment in a source file under src/, bench/,
tests/, examples/ or tools/ names a `*.md` file that is not in the
repository. A name resolves against the repository root, against the
commenting file's directory, or, when it has no directory part, against
any markdown file of that name in the tree.

Finally it checks the DS_* environment variables both ways. A source
file under those directories reads a variable by its quoted name
("DS_JOBS"); every such name must appear in docs/configuration.md, and
every DS_* name that README.md or docs/ mentions must be read by some
source file, so a retired knob cannot linger in the docs.

It checks the policy registries both ways too. Every *Registry class
declared under src/ must be named in README.md or docs/, and every
*Registry name those documents mention must be declared as a class
under src/, so a retired registry cannot linger in the docs.

Usage: python3 tools/docs_lint.py [repo-root]
"""

import os
import re
import sys

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)

SOURCE_DIRS = ("src", "bench", "tests", "examples", "tools")
SKIP_DIRS = {".git", "__pycache__", "out"}
MD_NAME_RE = re.compile(r"[\w./-]*\w\.md\b")
ENV_READ_RE = re.compile(r'"(DS_[A-Z][A-Z0-9_]*)"')
ENV_NAME_RE = re.compile(r"\bDS_[A-Z][A-Z0-9_]*")
REGISTRY_DECL_RE = re.compile(r"\b(?:class|struct)\s+(\w+Registry)\b")
REGISTRY_NAME_RE = re.compile(r"\b(\w+Registry)\b")
# Comment syntax per source kind: C-family line and block comments;
# hash comments and docstrings for Python, CMake and shell.
C_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
HASH_COMMENT_RE = re.compile(r"#[^\n]*|\"\"\".*?\"\"\"", re.DOTALL)
COMMENT_RE_BY_EXT = {
    ".h": C_COMMENT_RE, ".hpp": C_COMMENT_RE, ".cpp": C_COMMENT_RE,
    ".cc": C_COMMENT_RE, ".py": HASH_COMMENT_RE, ".cmake": HASH_COMMENT_RE,
    ".txt": HASH_COMMENT_RE, ".sh": HASH_COMMENT_RE,
}


def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)      # inline formatting
    slug = re.sub(r"[^\w\- ]", "", slug)   # punctuation
    slug = slug.replace(" ", "-")
    return slug


def anchors_of(path: str) -> set:
    with open(path, encoding="utf-8") as fh:
        text = CODE_FENCE_RE.sub("", fh.read())
    return {github_slug(h) for h in HEADING_RE.findall(text)}


def check_file(path: str, root: str) -> list:
    errors = []
    with open(path, encoding="utf-8") as fh:
        text = CODE_FENCE_RE.sub("", fh.read())
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, anchor = target.partition("#")
        if base:
            dest = os.path.normpath(
                os.path.join(os.path.dirname(path), base))
            if not os.path.exists(dest):
                errors.append(f"{os.path.relpath(path, root)}: broken "
                              f"link '{target}' (no such file)")
                continue
        else:
            dest = path  # same-document anchor
        if anchor and dest.endswith(".md"):
            if anchor not in anchors_of(dest):
                errors.append(f"{os.path.relpath(path, root)}: broken "
                              f"anchor '{target}'")
    return errors


def walk_files(top: str):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames
                             if d not in SKIP_DIRS and
                             not d.startswith("build"))
        for name in sorted(filenames):
            yield os.path.join(dirpath, name)


def check_comment_refs(root: str) -> list:
    """Comments in source files that name a missing markdown file."""
    md_names = {os.path.basename(p) for p in walk_files(root)
                if p.endswith(".md")}
    errors = []
    for top in SOURCE_DIRS:
        for path in walk_files(os.path.join(root, top)):
            comment_re = COMMENT_RE_BY_EXT.get(os.path.splitext(path)[1])
            if comment_re is None:
                continue
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            for comment in comment_re.finditer(text):
                for match in MD_NAME_RE.finditer(comment.group(0)):
                    ref = match.group(0)
                    if (os.path.exists(os.path.join(root, ref)) or
                            os.path.exists(os.path.join(
                                os.path.dirname(path), ref)) or
                            ("/" not in ref and ref in md_names)):
                        continue
                    offset = comment.start() + match.start()
                    line = text.count("\n", 0, offset) + 1
                    errors.append(f"{os.path.relpath(path, root)}:{line}: "
                                  f"comment names missing file '{ref}'")
    return errors


def check_env_vars(root: str, doc_files: list) -> list:
    """DS_* variables read by the sources vs. named in the docs."""
    read = set()
    for top in SOURCE_DIRS:
        for path in walk_files(os.path.join(root, top)):
            if os.path.splitext(path)[1] not in COMMENT_RE_BY_EXT:
                continue
            with open(path, encoding="utf-8") as fh:
                read |= set(ENV_READ_RE.findall(fh.read()))
    errors = []
    config_doc = os.path.join(root, "docs", "configuration.md")
    documented = set()
    if os.path.exists(config_doc):
        with open(config_doc, encoding="utf-8") as fh:
            documented = set(ENV_NAME_RE.findall(fh.read()))
    for name in sorted(read - documented):
        errors.append(f"{name} is read by the sources but not documented "
                      f"in docs/configuration.md")
    for path in doc_files:
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            mentioned = set(ENV_NAME_RE.findall(fh.read()))
        for name in sorted(mentioned - read):
            errors.append(f"{os.path.relpath(path, root)}: {name} is not "
                          f"read by any source file")
    return errors


def check_registries(root: str, doc_files: list) -> list:
    """*Registry classes declared under src/ vs. named in the docs."""
    declared = set()
    for path in walk_files(os.path.join(root, "src")):
        if os.path.splitext(path)[1] in (".h", ".cpp"):
            with open(path, encoding="utf-8") as fh:
                declared |= set(REGISTRY_DECL_RE.findall(fh.read()))
    errors = []
    documented = set()
    for path in doc_files:
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            mentioned = set(REGISTRY_NAME_RE.findall(fh.read()))
        documented |= mentioned
        for name in sorted(mentioned - declared):
            errors.append(f"{os.path.relpath(path, root)}: {name} is not "
                          f"declared as a class under src/")
    for name in sorted(declared - documented):
        errors.append(f"{name} is declared under src/ but not named in "
                      f"README.md or docs/")
    return errors


def main() -> int:
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    files = [os.path.join(root, "README.md")]
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        files += [os.path.join(docs, f) for f in sorted(os.listdir(docs))
                  if f.endswith(".md")]
    errors = []
    for path in files:
        if os.path.exists(path):
            errors += check_file(path, root)
    comment_errors = check_comment_refs(root)
    env_errors = check_env_vars(root, files)
    registry_errors = check_registries(root, files)
    for err in errors + comment_errors + env_errors + registry_errors:
        print(err, file=sys.stderr)
    print(f"docs-lint: {len(files)} file(s), {len(errors)} broken "
          f"link(s), {len(comment_errors)} comment(s) naming a missing "
          f"markdown file, {len(env_errors)} DS_* variable mismatch(es), "
          f"{len(registry_errors)} registry mismatch(es)")
    return 1 if (errors or comment_errors or env_errors or
                 registry_errors) else 0


if __name__ == "__main__":
    sys.exit(main())
