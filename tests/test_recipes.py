"""Shipped reproduction recipes: all parse, all run, all rerun identically."""

import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reproduce.py"
RECIPE_DIR = ROOT / "scripts" / "recipes"
PINNED = pathlib.Path(__file__).resolve().parent / "recipe_outputs.sha256"


def pinned_hashes():
    lines = PINNED.read_text().splitlines()
    return {name: digest for digest, name in
            (line.split() for line in lines if not line.startswith("#"))}


def run_all(outdir):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--outdir", str(outdir)],
        capture_output=True, text=True)


def test_recipe_documents_are_well_formed():
    paths = sorted(RECIPE_DIR.glob("*.json"))
    assert len(paths) >= 9
    for path in paths:
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1
        assert doc["subcommand"]
        assert doc["description"]
        options = doc.get("options", {})
        for key in ("pvf", "init", "kernel", "oracle"):
            if key in options:
                assert (RECIPE_DIR / options[key]).exists(), options[key]
        for rel in options.get("inputs", []):
            assert (RECIPE_DIR / rel).exists(), rel


def test_reruns_are_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for outdir in (first, second):
        proc = run_all(outdir)
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert len(names) == len(list(RECIPE_DIR.glob("*.json")))
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    digests = {name: hashlib.sha256((first / name).read_bytes()).hexdigest()
               for name in names}
    assert digests == pinned_hashes()


def test_fiber_recipe_prints_the_triangle_violation(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--outdir", str(tmp_path),
         "fiber-triangle-violation"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    values = [float(v) for v in
              (tmp_path / "fiber-triangle-violation.txt").read_text().split()]
    assert values[0] == pytest.approx(1.0, abs=1e-6)
    assert values[1] == pytest.approx(1.0, abs=1e-6)
    assert values[2] == pytest.approx(3.0, abs=1e-6)


def test_unknown_recipe_name_fails_cleanly(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--outdir", str(tmp_path), "no-such"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "unknown recipes" in proc.stderr
