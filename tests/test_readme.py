import re
import shlex
import types
from pathlib import Path

import kauffman
from kauffman.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    """The documented library example uses only what `kauffman` exports, and its asserts hold."""
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert match, "README has no python block under '## Library'"
    exec(compile(match.group(1), str(README), "exec"), {})


# what the package root exports; adding or removing API is a deliberate edit of this list
PUBLIC_NAMES = """
    Block CIRCLE Circle ConsistencyError Diagram DomainError Generator JonesNF Measure
    NormalizationTrace ParseError RewriteStep Term compose decide_equal decide_nf delta
    diagram_to_nf enumerate_normal_forms enumerate_pairings enumerate_terms format_step
    format_term format_word from_json_dict make_block measure_word nf_by_diagram nf_to_term
    normal_form normalize parse peel render rewrite_steps slope_points span to_json_dict
""".split()


def test_package_root_exports_exactly_the_pinned_names():
    exported = {name for name, value in vars(kauffman).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 38
    assert exported == set(PUBLIC_NAMES)


def cli_examples() -> list[tuple[list[str], str]]:
    """(argv, comment) for each single-command line of the README's `## CLI` block.

    The comment is the line's own, or the comment line right below it.
    Pipelines, redirections and `selftest` are left out.
    """
    match = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    assert match, "README has no sh block under '## CLI'"
    lines = match.group(1).splitlines() + [""]
    examples = []
    for line, below in zip(lines, lines[1:]):
        if not line.startswith("kauffman "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        if {"|", ">"} & set(argv) or argv[0] == "selftest":
            continue
        own = line.partition("#")[2]
        comment = own or (below[1:] if below.startswith("#") else "")
        examples.append((argv, comment.strip()))
    return examples


def test_readme_cli_examples_exit_as_documented(capsys):
    outputs = {}
    for argv, comment in cli_examples():
        documented = re.search(r"exit (\d)", comment)
        assert main(argv) == (int(documented.group(1)) if documented else 0), argv
        outputs[" ".join(argv[:3])] = (capsys.readouterr().out.strip(), comment)
    for command, expected in [("nf -n 11", "c^6 h[3,1] h4 h7 h[9,8] h[10,9]"),
                              ("count -n 5", "42"), ("eq -n 2", "equal")]:
        out, comment = outputs[command]
        assert out == expected and expected in comment, command
