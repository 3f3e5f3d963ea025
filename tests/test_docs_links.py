"""Every relative markdown link in the documentation resolves to a file."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted(
    path
    for pattern in ("*.md", "docs/*.md", "bench/*.md")
    for path in ROOT.glob(pattern)
)
# [text](target) or [text](target "title"); images share the syntax.
LINK = re.compile(r"\[[^\]]*\]\(\s*<?([^)\s>]+)>?(?:\s+\"[^\"]*\")?\s*\)")
EXTERNAL = re.compile(r"^(?:[a-z][a-z0-9+.-]*:|#)", re.IGNORECASE)


def relative_links(path):
    for target in LINK.findall(path.read_text(encoding="utf-8")):
        if not EXTERNAL.match(target):
            yield target


def test_docs_are_found():
    names = {path.relative_to(ROOT).as_posix() for path in DOCS}
    assert {"README.md", "docs/api.md", "bench/README.md"} <= names


def test_relative_links_resolve():
    # One test over every doc, so the suite's size does not depend on
    # which markdown files sit at the root.
    broken = [
        f"{doc.relative_to(ROOT).as_posix()}: {target}"
        for doc in DOCS
        for target in relative_links(doc)
        if not (doc.parent / target.split("#", 1)[0]).is_file()
    ]
    assert broken == []
