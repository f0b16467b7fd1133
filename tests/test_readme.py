import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_imports():
    # every name the quick start imports is exported by the package
    found = re.findall(r"^from pairbath import \([^)]*\)", README.read_text(),
                       flags=re.MULTILINE)
    assert found
    for statement in found:
        exec(statement, {})
