#!/usr/bin/env python3
"""Docs gate: broken links, broken anchors, stale knob references, a
stale checkpoint layout version and a stale stage-span table.

Usage:
    check_docs.py [ROOT]

Five checks over the tracked ``*.md`` files under ROOT (default: the
repo root, i.e. the parent of this script's directory):

1. **Relative links** — every ``[text](target)`` / ``![alt](target)``
   whose target is a relative path must exist on disk and stay inside the
   repo. External links (http/https/mailto/ftp) are ignored.
2. **Anchor fragments** — ``target#fragment`` and in-page ``#fragment``
   links must name a real heading: the fragment is checked against the
   GitHub-style slugs of the target file's headings (lowercase,
   punctuation stripped, spaces to hyphens, ``-N`` suffixes for
   duplicates).
3. **README knob table** — the ``NERGLOB_*`` environment knobs named in
   the README's operations table must be exactly the ``"NERGLOB_*"``
   string literals under ``src/``, in both directions: a knob the library
   no longer reads cannot keep its row, and a knob it reads cannot go
   undocumented. Mentions elsewhere (benches, tests, CI) do not count.
4. **Checkpoint layout version** — the "checkpoint layout version
   (currently N)" in ``docs/FORMATS.md`` must equal
   ``kCheckpointLayoutVersion`` in ``src/core/ner_globalizer.cc``.
5. **Stage spans** — the ``stage.<name>`` rows of the span table in
   ``docs/OBSERVABILITY.md`` must name exactly the ``trace::TraceStage``
   stages declared under ``src/``, in both directions.

Stdlib-only on purpose: CI runs it before anything is built.
"""

import pathlib
import re
import sys

# Inline links/images: [text](target) / ![alt](target). Titles after the
# target ("... "title") are stripped. Nested parens in URLs are rare enough
# in this repo to ignore.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
# Knob rows in the README table: | `NERGLOB_FOO` | ... |
KNOB_ROW_RE = re.compile(r"^\|\s*`(NERGLOB_[A-Z0-9_]+)`\s*\|")

SKIP_DIRS = {".git", "build", "build-asan", "build-tsan", "nerglob_cache",
             "node_modules", ".cache"}

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

# The checkpoint layout version: its constant and the sentence that
# documents it.
LAYOUT_SOURCE = pathlib.Path("src", "core", "ner_globalizer.cc")
LAYOUT_DOC = pathlib.Path("docs", "FORMATS.md")
LAYOUT_CONST_RE = re.compile(r"kCheckpointLayoutVersion\s*=\s*(\d+)")
LAYOUT_DOC_RE = re.compile(r"checkpoint layout version\s+\(currently\s+(\d+)\)")

# The stage spans: their declarations in src/ and the documented rows.
SPAN_DOC = pathlib.Path("docs", "OBSERVABILITY.md")
SPAN_DECL_RE = re.compile(r'trace::TraceStage\s+\w+\s*\(\s*"([^"]+)"\s*\)')
SPAN_ROW_RE = re.compile(r"^\|\s*`stage\.([a-z0-9_]+)`\s*\|")

# The knobs the library reads: whole "NERGLOB_*" string literals in src/.
KNOB_LITERAL_RE = re.compile(r'"(NERGLOB_[A-Z0-9_]+)"')


def markdown_files(root: pathlib.Path):
    for path in sorted(root.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.relative_to(root).parts):
            continue
        yield path


def strip_inline_markup(text: str) -> str:
    """Reduces heading text to what GitHub slugifies: link text kept,
    URLs dropped, code/emphasis markers dropped."""
    text = re.sub(r"!?\[([^\]]*)\]\([^)]*\)", r"\1", text)
    return text.replace("`", "").replace("*", "").replace("_", " ")


def github_slug(heading: str) -> str:
    text = strip_inline_markup(heading).strip().lower()
    # GitHub keeps word characters, spaces, and hyphens; everything else
    # (&, :, ., parens, ...) is deleted, then spaces become hyphens.
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(path: pathlib.Path) -> set:
    """All anchor slugs defined by a markdown file, with GitHub's -N
    deduplication for repeated headings."""
    anchors = set()
    counts = {}
    in_fence = False
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return anchors
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


class AnchorCache:
    def __init__(self):
        self._cache = {}

    def anchors(self, path: pathlib.Path) -> set:
        key = path.resolve()
        if key not in self._cache:
            self._cache[key] = heading_anchors(path)
        return self._cache[key]


def check_file(path: pathlib.Path, root: pathlib.Path, cache: AnchorCache):
    errors = []
    text = path.read_text(encoding="utf-8")
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            raw = match.group(1)
            if raw.startswith(EXTERNAL_PREFIXES):
                continue
            target, _, fragment = raw.partition("#")
            if target:
                resolved = (path.parent / target).resolve()
                try:
                    resolved.relative_to(root.resolve())
                except ValueError:
                    errors.append((lineno, raw, "escapes the repo"))
                    continue
                if not resolved.exists():
                    errors.append((lineno, raw, "does not exist"))
                    continue
            else:
                resolved = path  # pure in-page anchor: #fragment
            if fragment and resolved.suffix == ".md":
                if fragment.lower() not in cache.anchors(resolved):
                    errors.append(
                        (lineno, raw,
                         f"no heading with anchor '#{fragment}' in "
                         f"{resolved.name}"))
    return errors


def readme_knobs(root: pathlib.Path):
    """NERGLOB_* knob names from the README's operations table."""
    readme = root / "README.md"
    if not readme.exists():
        return []
    knobs = []
    for line in readme.read_text(encoding="utf-8").splitlines():
        match = KNOB_ROW_RE.match(line.strip())
        if match:
            knobs.append(match.group(1))
    return knobs


def source_knobs(root: pathlib.Path):
    """NERGLOB_* knob names read as string literals under src/."""
    knobs = set()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".cc", ".h") and path.is_file():
            text = path.read_text(encoding="utf-8", errors="ignore")
            knobs.update(KNOB_LITERAL_RE.findall(text))
    return knobs


def check_knob_table(root: pathlib.Path):
    documented = set(readme_knobs(root))
    if not documented:
        return ["README.md: no NERGLOB_* knob table found "
                "(expected an Operations section with a knob table)"]
    read = source_knobs(root)
    errors = []
    for knob in sorted(documented - read):
        errors.append(f"README.md: knob `{knob}` is documented but no "
                      f"\"{knob}\" literal is read under src/ — stale docs?")
    for knob in sorted(read - documented):
        errors.append(f"README.md: src/ reads \"{knob}\" but the knob "
                      f"table has no `{knob}` row")
    return errors


def check_layout_version(root: pathlib.Path):
    """The documented checkpoint layout version against the constant."""
    found = []
    for path, regex in ((LAYOUT_SOURCE, LAYOUT_CONST_RE),
                        (LAYOUT_DOC, LAYOUT_DOC_RE)):
        try:
            text = (root / path).read_text(encoding="utf-8")
        except OSError:
            return [f"{path}: missing (checkpoint layout version check)"]
        match = regex.search(text)
        if match is None:
            return [f"{path}: no checkpoint layout version found "
                    f"(pattern {regex.pattern!r})"]
        found.append(int(match.group(1)))
    code, doc = found
    if code != doc:
        return [f"{LAYOUT_DOC}: documents checkpoint layout version "
                f"(currently {doc}) but {LAYOUT_SOURCE} sets "
                f"kCheckpointLayoutVersion = {code}"]
    return []


def check_stage_spans(root: pathlib.Path):
    """The documented stage-span rows against the declared TraceStages."""
    declared = set()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".cc", ".h") and path.is_file():
            text = path.read_text(encoding="utf-8", errors="ignore")
            declared.update(SPAN_DECL_RE.findall(text))
    try:
        doc = (root / SPAN_DOC).read_text(encoding="utf-8")
    except OSError:
        return [f"{SPAN_DOC}: missing (stage span check)"]
    documented = set()
    for line in doc.splitlines():
        match = SPAN_ROW_RE.match(line.strip())
        if match:
            documented.add(match.group(1))
    errors = []
    for name in sorted(declared - documented):
        errors.append(f"{SPAN_DOC}: no `stage.{name}` row, but src/ "
                      f"declares trace::TraceStage \"{name}\"")
    for name in sorted(documented - declared):
        errors.append(f"{SPAN_DOC}: documents `stage.{name}`, but no "
                      f"trace::TraceStage \"{name}\" is declared in src/")
    return errors


def main(argv):
    root = pathlib.Path(argv[1]) if len(argv) > 1 else \
        pathlib.Path(__file__).resolve().parent.parent
    cache = AnchorCache()
    total_files = 0
    failures = 0
    for path in markdown_files(root):
        total_files += 1
        for lineno, target, why in check_file(path, root, cache):
            failures += 1
            print(f"{path.relative_to(root)}:{lineno}: broken link "
                  f"'{target}' ({why})")
    for message in (check_knob_table(root) + check_layout_version(root) +
                    check_stage_spans(root)):
        failures += 1
        print(message)
    if failures:
        print(f"FAIL: {failures} problem(s) across {total_files} "
              f"markdown file(s)")
        return 1
    print(f"OK: links, anchors, the README knob table, the checkpoint "
          f"layout version and the stage spans check out across "
          f"{total_files} markdown file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
