import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    """The documented library example uses only what `kauffman` exports, and its asserts hold."""
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert match, "README has no python block under '## Library'"
    exec(compile(match.group(1), str(README), "exec"), {})
