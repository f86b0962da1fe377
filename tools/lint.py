#!/usr/bin/env python3
"""Repo-specific lints for the reldiv tree.

Purely syntactic hygiene checks that clang-tidy cannot express (or that
must run without a compiler). Semantic project contracts — physical-op
accounting, kernel purity, mutex GUARDED_BY coverage, failpoint catalog
sync, raw-thread and naked-new ownership rules — live in tools/analyze.py,
whose suppressions additionally require a written rationale.

  bare-assert       `assert(...)` in src/ — use RELDIV_CHECK / RELDIV_DCHECK
                    (common/check.h) so the intent survives NDEBUG builds
                    deliberately. static_assert is fine.
  include-guard     every header under src/ must open with the canonical
                    `RELDIV_<DIR>_<FILE>_H_` guard (#ifndef + #define).
  no-rand           `rand()` / `srand()` / `std::rand` — experiments must be
                    reproducible; use common/rng.h (deterministic
                    xorshift128+) instead.
  batch-overrides   a class overriding `NextBatch` is a batch-native
                    operator and must also override `Open` and `Close`: a
                    batch-native stream carries state that Open must reset
                    and Close must release (see exec/operator.h).
  kernel-virtual-next  code under src/exec/kernels/ must not call the
                    virtual Operator::NextBatch — kernels are the layer
                    BELOW the operator tree (plain loops over plain arrays)
                    and must stay linkable without exec/operator.h, so an
                    operator's inner loop can inline them without pulling
                    in virtual dispatch.

Usage: tools/lint.py [--root DIR]
Exit status: 0 when clean, 1 when any finding is reported.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_DIRS = ("src",)
HEADER_SUFFIX = ".h"
SOURCE_SUFFIXES = (".h", ".cc")

NOLINT_RE = re.compile(r"NOLINT\(reldiv/([a-z-]+)\)")
NOLINTNEXTLINE_RE = re.compile(r"NOLINTNEXTLINE\(reldiv/([a-z-]+)\)")


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and string/char literals so lint regexes do not
    fire on prose or examples. (Block comments are handled per-file.)"""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in ("\"", "'"):
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote + quote)
        else:
            out.append(c)
        i += 1
    return "".join(out)


def mask_block_comments(text: str) -> str:
    """Blanks /* ... */ regions (keeps newlines so line numbers hold)."""

    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    return re.sub(r"/\*.*?\*/", blank, text, flags=re.DOTALL)


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.findings: list[str] = []

    def report(self, path: Path, lineno: int, check: str, message: str):
        rel = path.relative_to(self.root)
        self.findings.append(f"{rel}:{lineno}: [{check}] {message}")

    # --- per-line checks -------------------------------------------------

    BARE_ASSERT_RE = re.compile(r"(?<![_\w])assert\s*\(")
    RAND_RE = re.compile(r"(?:std::)?\b(?:rand|srand)\s*\(")
    KERNEL_NEXTBATCH_RE = re.compile(r"(?:\.|->)\s*NextBatch\s*\(")

    def lint_lines(self, path: Path, text: str):
        rel = str(path.relative_to(self.root))
        carried: set[str] = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            suppressed = set(NOLINT_RE.findall(raw)) | carried
            carried = set(NOLINTNEXTLINE_RE.findall(raw))
            line = strip_comments_and_strings(raw)
            if self.BARE_ASSERT_RE.search(line) and "static_assert" not in line:
                if "bare-assert" not in suppressed:
                    self.report(path, lineno, "bare-assert",
                                "use RELDIV_CHECK/RELDIV_DCHECK from "
                                "common/check.h instead of assert()")
            if self.RAND_RE.search(line) and "no-rand" not in suppressed:
                self.report(path, lineno, "no-rand",
                            "non-deterministic libc RNG; use common/rng.h "
                            "(seeded xorshift128+) for reproducibility")
            if (rel.startswith("src/exec/kernels/")
                    and self.KERNEL_NEXTBATCH_RE.search(line)
                    and "kernel-virtual-next" not in suppressed):
                self.report(path, lineno, "kernel-virtual-next",
                            "virtual NextBatch call inside the kernel "
                            "layer; kernels sit below the operator tree "
                            "and take plain arrays, never Operators")

    # --- include guards --------------------------------------------------

    def expected_guard(self, path: Path) -> str:
        rel = path.relative_to(self.root / "src")
        stem = "_".join(rel.parts[:-1] + (rel.stem,))
        return "RELDIV_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"

    def lint_include_guard(self, path: Path, text: str):
        guard = self.expected_guard(path)
        lines = text.splitlines()
        head = [l.strip() for l in lines[:5] if l.strip()]
        if (len(head) < 2 or head[0] != f"#ifndef {guard}"
                or head[1] != f"#define {guard}"):
            self.report(path, 1, "include-guard",
                        f"header must open with '#ifndef {guard}' / "
                        f"'#define {guard}'")

    # --- batch-native operators must override Open/Close ------------------

    CLASS_RE = re.compile(r"\bclass\s+([A-Za-z_]\w*)[^;{]*\{")

    def class_bodies(self, text: str):
        """Yields (class name, body text) using brace matching."""
        for match in self.CLASS_RE.finditer(text):
            depth = 1
            i = match.end()
            while i < len(text) and depth > 0:
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                i += 1
            yield match.group(1), text[match.end():i]

    NEXTBATCH_RE = re.compile(r"\bNextBatch\s*\([^)]*\)\s*override")
    OPEN_RE = re.compile(r"\bOpen\s*\(\s*\)\s*override")
    CLOSE_RE = re.compile(r"\bClose\s*\(\s*\)\s*override")

    def lint_batch_overrides(self, path: Path, text: str):
        # Line comments can mention "class X" in prose; scan code only.
        # NOLINT markers survive because they sit inside the class body text
        # checked below before stripping.
        stripped = "\n".join(
            line if "NOLINT" in line else strip_comments_and_strings(line)
            for line in text.splitlines())
        for name, body in self.class_bodies(stripped):
            if not self.NEXTBATCH_RE.search(body):
                continue
            if "batch-overrides" in "".join(NOLINT_RE.findall(body)):
                continue
            missing = [label for label, rx in (("Open", self.OPEN_RE),
                                               ("Close", self.CLOSE_RE))
                       if not rx.search(body)]
            if missing:
                lineno = text[:text.find(body)].count("\n") + 1
                self.report(path, lineno, "batch-overrides",
                            f"class {name} overrides NextBatch but not "
                            f"{'/'.join(missing)}; batch-native operators "
                            "must manage their stream state explicitly")

    # --- driver ----------------------------------------------------------

    def run(self) -> int:
        files = []
        for d in SOURCE_DIRS:
            files.extend(sorted((self.root / d).rglob("*")))
        for path in files:
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = mask_block_comments(path.read_text(encoding="utf-8"))
            self.lint_lines(path, text)
            if path.suffix == HEADER_SUFFIX:
                self.lint_include_guard(path, text)
                self.lint_batch_overrides(path, text)
        for finding in self.findings:
            print(finding)
        print(f"lint.py: {len(self.findings)} finding(s)")
        return 1 if self.findings else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="repository root (default: parent of tools/)")
    args = parser.parse_args()
    return Linter(Path(args.root)).run()


if __name__ == "__main__":
    sys.exit(main())
