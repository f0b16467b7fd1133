import copy
import re
from pathlib import Path

import pytest
import yaml

from pairbath.cli_runner import validate_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_imports():
    # every name the quick start imports is exported by the package
    found = re.findall(r"^from pairbath import \([^)]*\)", README.read_text(),
                       flags=re.MULTILINE)
    assert found
    for statement in found:
        exec(statement, {})


def _config_listing() -> dict:
    text = README.read_text()
    fence = "```yaml\n"
    start = text.index(fence, text.index("Every config key with its default")) + len(fence)
    return yaml.safe_load(text[start:text.index("```", start)])


def _key_paths(node, prefix=""):
    """Dotted paths of every mapping key, in order; list items as [i]."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield f"{prefix}.{key}" if prefix else key
            yield from _key_paths(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _key_paths(item, f"{prefix}[{i}]")


@pytest.mark.parametrize("command", ["run", "scan", "verify", "sense"])
def test_readme_config_listing_is_every_key(command):
    # the listing is a valid config for every command and names every key
    # of the normalized config, in the normalized order
    listing = _config_listing()
    norm = validate_config(copy.deepcopy(listing), command)
    assert list(_key_paths(listing)) == list(_key_paths(norm))
