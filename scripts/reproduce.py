#!/usr/bin/env python3
"""Run every shipped recipe and collect the outputs in one directory.

Each recipe in scripts/recipes/ is a RunConfig document; input paths are
resolved relative to the recipe file, outputs land in --outdir as
<recipe-name>.csv (or .txt for the plain-value subcommands). Runs are
deterministic: repeating this script reproduces every file byte for byte.

usage: python3 scripts/reproduce.py [--outdir DIR] [name ...]
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from mdelab.cli import recipe_to_config, run
from mdelab.errors import MdeLabError
from mdelab.measure import load_json

RECIPE_DIR = pathlib.Path(__file__).resolve().parent / "recipes"
PATH_OPTIONS = ("pvf", "init", "kernel", "oracle")
PLAIN_TEXT = {"dist", "fiber-dist"}


def resolve_recipe(path: pathlib.Path, outdir: pathlib.Path) -> dict:
    doc = load_json(str(path))
    options = dict(doc.get("options", {}))
    for key in PATH_OPTIONS:
        if key in options:
            options[key] = str((path.parent / options[key]).resolve())
    if "inputs" in options:
        options["inputs"] = [str((path.parent / p).resolve())
                             for p in options["inputs"]]
    suffix = ".txt" if doc.get("subcommand") in PLAIN_TEXT else ".csv"
    options["out"] = str(outdir / (path.stem + suffix))
    doc["options"] = options
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*",
                        help="recipe names (default: all)")
    parser.add_argument("--outdir", default="scripts/out")
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    if args.names:
        paths = [RECIPE_DIR / f"{name.removesuffix('.json')}.json"
                 for name in args.names]
        missing = [p.name for p in paths if not p.exists()]
        if missing:
            print(f"unknown recipes: {', '.join(missing)}", file=sys.stderr)
            return 2
    else:
        paths = sorted(RECIPE_DIR.glob("*.json"))

    failures = 0
    for path in paths:
        try:
            doc = resolve_recipe(path, outdir)
            run(recipe_to_config(doc))
        except MdeLabError as exc:
            failures += 1
            print(f"{path.stem}: FAILED ({exc})", file=sys.stderr)
            continue
        print(f"{path.stem}: wrote {doc['options']['out']}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
