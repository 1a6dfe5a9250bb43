#!/usr/bin/env python3
"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, lists each module's ``__all__`` (or
public top-level names) with the first line of their docstrings, and
writes a browsable Markdown reference.  Run from the repository root::

    python tools/gen_api_docs.py

``--check`` renders without writing and exits 1 when docs/API.md is out
of date (CI runs it so a changed public surface regenerates the file).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro

HEADER = """# API Reference

Auto-generated by ``tools/gen_api_docs.py`` — do not edit by hand.

Each section lists a module's public names with the first line of
their docstrings.  See the source for full documentation; every public
item carries a docstring.

## Run surface

`repro.api.run(config)` is the single run surface: it dispatches on
config type — `ExperimentConfig` → experiment, `FarmConfig` → farm,
`FederationConfig` → federation (see docs/FEDERATION.md) — and is the
campaign engine's default runner.  `obs=tracer` traces the run (member
0 of a farm or federation); `tracer_factory=f` traces every member.

`repro.campaign.Campaign.submit(configs) -> CampaignResult` runs a
batch: it deduplicates configs, serves finished points from a
content-addressed on-disk cache (`ResultCache`, keyed by
`config_digest(config)`), fans the rest out over worker processes, and
isolates per-point failures as error records.  `queue_sweep`,
`curve_family`, `replicate`, every `FIGURES` entry and
`cost_performance_curve` make one submission each and take
`campaign=c` to run it in parallel and/or cached.

CLI: `tape-jukebox sweep|figure|run|federate` share `--jobs N`,
`--cache-dir`, `--no-cache`, and `--progress` (env default:
`REPRO_CACHE_DIR`).
"""


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    return doc.strip().splitlines()[0]


def public_names(module) -> list:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    # `from __future__ import annotations` binds a _Feature object.
    return sorted(
        name
        for name in names
        if type(getattr(module, name, None)).__module__ != "__future__"
    )


def iter_modules():
    yield "repro", repro
    for info in sorted(
        pkgutil.walk_packages(repro.__path__, prefix="repro."),
        key=lambda item: item.name,
    ):
        try:
            yield info.name, importlib.import_module(info.name)
        except Exception as error:  # pragma: no cover - diagnostic path
            print(f"skipping {info.name}: {error}")


def render() -> str:
    sections = [HEADER]
    for name, module in iter_modules():
        module_summary = first_line(module)
        lines = [f"## `{name}`", "", module_summary, ""]
        members = []
        for member_name in public_names(module):
            member = getattr(module, member_name, None)
            if member is None:
                continue
            # Only document things defined (or re-exported) meaningfully.
            if inspect.ismodule(member):
                continue
            kind = (
                "class"
                if inspect.isclass(member)
                else "function"
                if callable(member)
                else "constant"
            )
            members.append(f"* **`{member_name}`** ({kind}) — {first_line(member)}")
        if not members:
            continue
        lines.extend(members)
        lines.append("")
        sections.append("\n".join(lines))
    return "\n".join(sections)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with docs/API.md instead of writing it; exit 1 on drift",
    )
    args = parser.parse_args()
    output = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    text = render()
    if args.check:
        if not output.exists() or output.read_text() != text:
            print(
                f"{output} is out of date; run python tools/gen_api_docs.py",
                file=sys.stderr,
            )
            sys.exit(1)
        print(f"{output} is up to date")
        return
    output.parent.mkdir(exist_ok=True)
    output.write_text(text)
    print(f"wrote {output} ({output.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
