"""The ``picos-experiment`` command line: per-subcommand flags.

Every subcommand accepts exactly the flags it reads, so a flag meant for
another command is a usage error (exit code 2) instead of being ignored.
Every invocation the CI workflow, the docs and the service launchers use
must keep parsing.
"""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

from repro.experiments import cli
from repro.experiments.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent

RUNNER_FLAGS = {"--jobs", "--cache-dir", "--no-cache"}

#: The flags each subcommand's ``--help`` lists (besides ``--help``).
COMMAND_FLAGS = {
    "fig1": RUNNER_FLAGS | {"--quick", "--backend"},
    "fig8": RUNNER_FLAGS | {"--quick", "--backend"},
    "fig9": RUNNER_FLAGS | {"--quick", "--backend"},
    "fig10": RUNNER_FLAGS,
    "fig11": RUNNER_FLAGS | {"--quick", "--full", "--backend"},
    "table1": RUNNER_FLAGS,
    "table2": RUNNER_FLAGS | {"--quick", "--backend"},
    "table3": RUNNER_FLAGS,
    "table4": RUNNER_FLAGS | {"--backend"},
    "all": RUNNER_FLAGS | {"--quick", "--full", "--backend"},
    "backends": set(),
    "simulate": {
        "--workload", "--restore", "--block-size", "--problem-size",
        "--backend", "--workers", "--until-cycle", "--show-events",
        "--checkpoint-at", "--checkpoint-to", "--fault",
    },
    "bench": {
        "--quick", "--gate", "--backend", "--repeats", "--output", "--compare",
        "--profile", "--fail-threshold", "--fail-on-regression", "--service",
    },
    "serve": {
        "--host", "--port", "--http-port", "--no-http", "--cache-dir",
        "--max-sessions", "--default-tenant-sessions", "--default-tenant-rate",
        "--tenant-sessions", "--tenant-rate", "--slice-cycles", "--idle-timeout",
    },
    "lint": {"--list-rules"},
}


def _usage_error(argv):
    """The exit code of parsing ``argv`` (parse only: nothing runs)."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    return excinfo.value.code


class TestSubcommandFlags:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_help_lists_only_the_flags_the_command_reads(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed - {"--help"} == COMMAND_FLAGS[command]

    @pytest.mark.parametrize(
        "argv",
        [
            ["table3", "--port", "5"],
            ["fig10", "--backend", "hil-hw"],
            ["serve", "--gate"],
            ["bench", "--workload", "x"],
        ],
        ids=" ".join,
    )
    def test_foreign_flags_are_rejected(self, argv):
        assert _usage_error(argv) == 2

    def test_simulate_rejects_zero_workers_as_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--workload", "case1", "--workers", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["all", "--jobs", "0"],
            ["bench", "--repeats", "0"],
            ["serve", "--slice-cycles", "0"],
            ["simulate", "--workload", "case1", "--workers", "many"],
        ],
        ids=" ".join,
    )
    def test_count_flags_must_be_positive_integers(self, argv):
        assert _usage_error(argv) == 2

    def test_simulate_needs_exactly_one_program_source(self):
        assert _usage_error(["simulate"]) == 2
        assert _usage_error(["simulate", "--workload", "case1", "--restore", "x"]) == 2

    def test_lint_forwards_paths_and_list_rules(self, capsys):
        from repro.lint.cli import main as lint_main

        assert main(["lint", "--list-rules"]) == 0
        forwarded = capsys.readouterr().out
        assert lint_main(["--list-rules"]) == 0
        assert forwarded == capsys.readouterr().out
        assert main(["lint", str(REPO_ROOT / "src" / "repro" / "core" / "config.py")]) == 0


# ----------------------------------------------------------------------
# documented invocations
# ----------------------------------------------------------------------
#: A command line: ``picos-experiment`` first, after an optional ``$ `` prompt
#: or a ``! `` negation (a command that must fail).
_COMMAND_LINE = re.compile(r"^\s*(?:\$\s+)?(!\s+)?picos-experiment\b(.*)$")


def _shell_invocations(text: str):
    """``(argv, negated)`` of every ``picos-experiment`` command line in a text.

    Backslash continuations are joined; a command ends at a comment or a
    shell operator.  Prose that merely names a subcommand is not a command
    line.
    """
    for line in text.replace("\\\n", " ").splitlines():
        match = _COMMAND_LINE.match(line)
        if match is None:
            continue
        lexer = shlex.shlex(match.group(2), posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        argv = []
        for token in lexer:
            if all(char in lexer.punctuation_chars for char in token):
                break
            argv.append(token)
        yield argv, bool(match.group(1))


def _python_serve_argv(path: Path):
    """The ``serve ...`` argv lists a Python launcher builds."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.List):
            continue
        words = [
            elt.value if isinstance(elt, ast.Constant) else "X" for elt in node.elts
        ]
        if "serve" in words:
            yield words[words.index("serve"):], False


def _documented_invocations():
    texts = {"cli.py docstring": cli.__doc__}
    for source in [REPO_ROOT / ".github" / "workflows" / "ci.yml", REPO_ROOT / "README.md"]:
        texts[source.name] = source.read_text(encoding="utf-8")
    for source in sorted((REPO_ROOT / "docs").glob("*.md")):
        texts[source.name] = source.read_text(encoding="utf-8")
    cases = []
    for name, text in texts.items():
        cases += [(name, *found) for found in _shell_invocations(text)]
    for launcher in ("perfbench/service_load.py", "tools/service_client.py"):
        cases += [(launcher, *found) for found in _python_serve_argv(REPO_ROOT / launcher)]
    return cases


DOCUMENTED = _documented_invocations()


class TestDocumentedInvocations:
    def test_every_source_contributes(self):
        sources = {source for source, _, _ in DOCUMENTED}
        assert {
            "cli.py docstring", "ci.yml", "README.md",
            "perfbench/service_load.py", "tools/service_client.py",
        } <= sources
        assert len([s for s in sources if s.endswith(".md")]) >= 4

    def test_the_service_load_argv_is_among_them(self):
        argv = ["serve", "--port", "0", "--no-http", "--cache-dir", "X", "--idle-timeout", "120"]
        assert ("perfbench/service_load.py", argv, False) in DOCUMENTED

    def test_the_ci_foreign_flag_check_is_among_them(self):
        assert ("ci.yml", ["table3", "--port", "5"], True) in DOCUMENTED

    @pytest.mark.parametrize(
        "source,argv,negated",
        DOCUMENTED,
        ids=[f"{source}: {' '.join(argv)}" for source, argv, _ in DOCUMENTED],
    )
    def test_invocation_parses(self, source, argv, negated):
        parser = build_parser()
        if negated:
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(argv)
            assert excinfo.value.code == 2
        else:
            assert parser.parse_args(argv).experiment == argv[0]
