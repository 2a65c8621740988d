#!/usr/bin/env python3
"""Docs consistency checker (no third-party dependencies).

Run from the repository root with the mbctl binary (CI and the `docs_check`
ctest both do):

  python3 tools/check_docs.py build/tools/mbctl

Checks
  1. The commands of `mbctl help`, which mbctl generates from its command
     table, match the `## \`command\`` sections of docs/cli.md in the same
     order — a new subcommand cannot ship undocumented, and the doc cannot
     advertise a command that no longer exists.
  2. docs/cli.md documents every exit code declared in
     src/support/exit_codes.h.
  3. Every flag the table declares for a command appears in that
     command's docs/cli.md section; a flag of a shared group
     (`[<name> opts]`) may appear under "Shared conventions" instead.
  4. Every relative markdown link in the curated docs resolves to an
     existing file (anchors are stripped; external URLs are ignored).
  5. Every document of the schema list (src/support/schema.h, which every
     writer and reader goes through) has a '## `mb-...`' section in
     docs/schemas.md and a row in its registry table with the same
     version — a new or bumped document format cannot ship undocumented.
"""

import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Files whose relative links must resolve. Generated/provenance files
# (PAPERS.md retrieval dumps, SNIPPETS.md exemplars, ISSUE.md) are excluded:
# they quote external repos and are not part of the documentation site.
LINKED_DOCS = [
    "README.md",
    "ROADMAP.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "CONTRIBUTING.md",
    "docs/schemas.md",
    "docs/cli.md",
    "docs/advisor.md",
]


def fail(errors):
    for e in errors:
        print(f"check_docs: {e}", file=sys.stderr)
    sys.exit(1)


def read(path):
    with open(os.path.join(REPO, path), encoding="utf-8") as f:
        return f.read()


def parse_help(text):
    """Commands and flag groups of `mbctl help`, each mapped to its synopsis.

    A command line is two spaces + name, a group line `<name> opts:`, and
    continuation lines are indented further; everything else is notes.
    """
    commands, groups = {}, {}
    entry = None
    for line in text.splitlines():
        command = re.match(r"^  ([a-z][a-z0-9-]*)(.*)$", line)
        group = re.match(r"^([a-z]+) opts:(.*)$", line)
        if command:
            entry = (commands, command.group(1), command.group(2))
        elif group:
            entry = (groups, group.group(1), group.group(2))
        elif entry and line.startswith("   "):
            entry = (entry[0], entry[1], entry[2] + " " + line.strip())
        else:
            entry = None
        if entry:
            entry[0][entry[1]] = entry[2]
    return commands, groups


FLAG_RE = re.compile(r"--([a-z][a-z0-9-]*)")
GROUP_RE = re.compile(r"\[([a-z]+) opts\]")


def documented_commands(cli_md):
    return re.findall(r"^## `([a-z][a-z0-9-]*)`", cli_md, re.MULTILINE)


def declared_exit_codes(header):
    return re.findall(r"inline constexpr int kExit\w+ = (\d+);", header)


def check_commands(errors, commands):
    usage = list(commands)
    documented = documented_commands(read("docs/cli.md"))
    if not usage:
        errors.append("could not parse any commands from `mbctl help`")
        return
    for missing in sorted(set(usage) - set(documented)):
        errors.append(f"docs/cli.md: command `{missing}` is in `mbctl "
                      f"help` but has no '## `{missing}`' section")
    for stale in sorted(set(documented) - set(usage)):
        errors.append(f"docs/cli.md: documents `{stale}`, which `mbctl "
                      "help` no longer lists")
    if usage == documented:
        return
    if set(usage) == set(documented):
        errors.append("docs/cli.md: command sections are ordered "
                      f"differently from `mbctl help`: {documented} vs "
                      f"{usage}")


def section_bodies(cli_md):
    """Map of command name -> the body text of its `## ` section."""
    parts = re.split(r"^## `([a-z][a-z0-9-]*)`", cli_md, flags=re.MULTILINE)
    return {parts[i]: parts[i + 1] for i in range(1, len(parts), 2)}


def mentions(text, flag):
    return re.search(rf"--{re.escape(flag)}(?![a-z0-9-])", text) is not None


def check_flags(errors, commands, groups):
    cli_md = read("docs/cli.md")
    sections = section_bodies(cli_md)
    shared = re.search(r"^## Shared conventions$(.*?)^## ", cli_md,
                       re.MULTILINE | re.DOTALL)
    shared = shared.group(1) if shared else ""
    for cmd, synopsis in commands.items():
        body = sections.get(cmd, "")
        for flag in FLAG_RE.findall(synopsis):
            if not mentions(body, flag):
                errors.append(f"docs/cli.md: `{cmd}` takes --{flag} but its "
                              "section does not document the flag")
        for group in GROUP_RE.findall(synopsis):
            if group not in groups:
                errors.append(f"`mbctl help`: `{cmd}` names [{group} opts], "
                              "which the help text never spells out")
            for flag in FLAG_RE.findall(groups.get(group, "")):
                if not (mentions(body, flag) or mentions(shared, flag)):
                    errors.append(f"docs/cli.md: `{cmd}` takes --{flag} "
                                  f"({group} opts) but neither its section "
                                  "nor Shared conventions documents it")


def check_exit_codes(errors):
    cli_md = read("docs/cli.md")
    for code in declared_exit_codes(read("src/support/exit_codes.h")):
        if not re.search(rf"^\|\s*`?{code}`?\s*\|", cli_md, re.MULTILINE):
            errors.append(f"docs/cli.md: exit code {code} from "
                          "src/support/exit_codes.h is not documented")


SCHEMA_LIST = "src/support/schema.h"
SCHEMA_ENTRY_RE = re.compile(
    r'^inline constexpr Schema k\w+\{"(mb-[a-z-]+)", (\d+)\};$', re.MULTILINE)
REGISTRY_ROW_RE = re.compile(r"^\|\s*`(mb-[a-z-]+)`[^|]*\|\s*(\d+)\s*\|",
                             re.MULTILINE)


def check_schemas(errors):
    schemas = read("docs/schemas.md")
    sections = set(re.findall(r"^## `(mb-[a-z-]+)`", schemas, re.MULTILINE))
    registry = re.search(r"^\| Schema \| Version \|.*?(?:\n\n|\Z)", schemas,
                         re.MULTILINE | re.DOTALL)
    rows = {}
    for name, version in REGISTRY_ROW_RE.findall(
            registry.group(0) if registry else ""):
        rows.setdefault(name, []).append(version)
    listed = SCHEMA_ENTRY_RE.findall(read(SCHEMA_LIST))
    if not listed:
        errors.append(f"could not parse any schema from {SCHEMA_LIST}; "
                      "update or drop this check")
    for name, version in listed:
        if name not in sections:
            errors.append(f"docs/schemas.md: schema `{name}` is in "
                          f"{SCHEMA_LIST} but has no '## `{name}`' section")
        if rows.get(name) != [version]:
            errors.append(f"docs/schemas.md: the registry table needs one "
                          f"`{name}` row with version {version} (found "
                          f"{rows.get(name, 'none')})")


LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_links(errors):
    for doc in LINKED_DOCS:
        if not os.path.exists(os.path.join(REPO, doc)):
            errors.append(f"{doc}: listed in check_docs.py but missing")
            continue
        base = os.path.dirname(os.path.join(REPO, doc))
        for target in LINK_RE.findall(read(doc)):
            if re.match(r"^[a-z]+:", target) or target.startswith("#"):
                continue  # external URL or in-page anchor
            path = target.split("#", 1)[0]
            if not os.path.exists(os.path.normpath(os.path.join(base, path))):
                errors.append(f"{doc}: broken relative link -> {target}")


def main():
    if len(sys.argv) != 2:
        fail(["usage: check_docs.py <path to the mbctl binary>"])
    help_run = subprocess.run([sys.argv[1], "help"], capture_output=True,
                              text=True, check=False)
    if help_run.returncode != 0:
        fail([f"`{sys.argv[1]} help` exited {help_run.returncode}"])
    commands, groups = parse_help(help_run.stderr)
    errors = []
    check_commands(errors, commands)
    check_exit_codes(errors)
    check_flags(errors, commands, groups)
    check_links(errors)
    check_schemas(errors)
    if errors:
        fail(errors)
    print("check_docs: OK")


if __name__ == "__main__":
    main()
