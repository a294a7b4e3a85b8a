"""The source distribution agrees with the tracked files: every ``include``
line of ``MANIFEST.in`` names files that exist."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_manifest_includes_exist():
    lines = (ROOT / "MANIFEST.in").read_text(encoding="utf-8").splitlines()
    patterns = [p for line in lines if line.split()[:1] == ["include"]
                for p in line.split()[1:]]
    assert patterns
    for pattern in patterns:
        assert any(path.is_file() for path in ROOT.glob(pattern)), pattern
