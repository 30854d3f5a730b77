"""Regenerate the shipped data files: the ledger from `paperdata.py` beside
this script, the manifest from `degenlab.catalog.build_manifest`.

Run from the repository root:  python tools/make_ledger.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, "src")

from degenlab.catalog import build_manifest
from paperdata import build_ledger

DATA = Path("src/degenlab/data")


def render(obj) -> str:
    """The shipped JSON layout of a generated data file."""
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    ledger = build_ledger()
    (DATA / "ledger.json").write_text(render(ledger), encoding="utf-8")
    manifest = build_manifest()
    (DATA / "manifest.json").write_text(render(manifest), encoding="utf-8")
    print(f"ledger: {len(ledger['certificates'])} certificates, "
          f"{len(ledger['witnesses'])} witnesses, "
          f"{len(ledger['chains'])} chains")
    print(f"manifest: {len(manifest['families'])} families")


if __name__ == "__main__":
    main()
