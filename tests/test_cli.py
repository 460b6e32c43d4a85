"""The command line's parser: what each argv prints and exits with, and
that a call naming its command first and parsing cleanly builds that
command's parser alone, while help and errors come from the whole tree.

The recorded strings are argparse's wording at 80 columns on Python
3.11, from the parser that built every command's options on every call.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from rootclose import cli, report

TOP_USAGE = "usage: rootclose [-h] {example,props,eval,revalidate} ...\n"
TOP_HELP = (
    TOP_USAGE
    + "\n"
    + "Exact verification of root-closure, sequence and Witt-vector constructions\n"
    + "\n"
    + "positional arguments:\n"
    + "  {example,props,eval,revalidate}\n"
    + "    example             run the worked example suite\n"
    + "    props               run the randomized property suites\n"
    + "    eval                parse an expression and test closure membership\n"
    + "    revalidate          re-check every certificate in a report\n"
    + "\n"
    + "options:\n"
    + "  -h, --help            show this help message and exit\n"
)
CHOICES = "(choose from 'example', 'props', 'eval', 'revalidate')"
EXAMPLE_USAGE = (
    "usage: rootclose example [-h] [--p P] [--depth DEPTH] [--witt-len WITT_LEN]\n"
    "                         [--mode {certified,plain}] [--no-timestamp]\n"
    "                         [--format {json,text}]\n"
)
EVAL_USAGE = (
    "usage: rootclose eval [-h] [--check-closure] [--mmax MMAX] [--p P]\n"
    "                      [--degree DEGREE] [--format {json,text}]\n"
    "                      expr\n"
)
OPTIONS_HEAD = "\noptions:\n  -h, --help            show this help message and exit\n"

#: argv -> (exit code, stdout, stderr)
GOLDEN = {
    (): (2, "", TOP_USAGE + "rootclose: error: the following arguments are required: command\n"),
    ("--help",): (0, TOP_HELP, ""),
    ("-h", "eval"): (0, TOP_HELP, ""),
    ("example", "--help"): (
        0,
        EXAMPLE_USAGE
        + OPTIONS_HEAD
        + "  --p P\n"
        + "  --depth DEPTH\n"
        + "  --witt-len WITT_LEN\n"
        + "  --mode {certified,plain}\n"
        + "  --no-timestamp\n"
        + "  --format {json,text}\n",
        "",
    ),
    ("props", "--help"): (
        0,
        "usage: rootclose props [-h] [--seed SEED] [--no-timestamp]\n"
        + "                       [--format {json,text}]\n"
        + OPTIONS_HEAD
        + "  --seed SEED\n"
        + "  --no-timestamp\n"
        + "  --format {json,text}\n",
        "",
    ),
    ("eval", "--help"): (
        0,
        EVAL_USAGE
        + "\n"
        + "positional arguments:\n"
        + "  expr\n"
        + OPTIONS_HEAD
        + "  --check-closure\n"
        + "  --mmax MMAX\n"
        + "  --p P\n"
        + "  --degree DEGREE\n"
        + "  --format {json,text}\n",
        "",
    ),
    ("revalidate", "--help"): (
        0,
        "usage: rootclose revalidate [-h] [--format {json,text}] report\n"
        + "\n"
        + "positional arguments:\n"
        + "  report\n"
        + OPTIONS_HEAD
        + "  --format {json,text}\n",
        "",
    ),
    ("bogus",): (
        2,
        "",
        TOP_USAGE + f"rootclose: error: argument command: invalid choice: 'bogus' {CHOICES}\n",
    ),
    ("eval",): (2, "", EVAL_USAGE + "rootclose eval: error: the following arguments are required: expr\n"),
    ("example", "--p", "x"): (
        2,
        "",
        EXAMPLE_USAGE + "rootclose example: error: argument --p: invalid int value: 'x'\n",
    ),
    ("example", "--bogus", "1"): (2, "", TOP_USAGE + "rootclose: error: unrecognized arguments: --bogus 1\n"),
    ("--bogus", "eval", "x"): (2, "", TOP_USAGE + "rootclose: error: unrecognized arguments: --bogus\n"),
    ("--", "eval", "x"): (
        2,
        "",
        TOP_USAGE + f"rootclose: error: argument command: invalid choice: '--' {CHOICES}\n",
    ),
}

#: the default example's JSON report (EXAMPLE_DIGESTS["p5-d3"] in
#: test_report.py), reached through abbreviated options
ABBREVIATED = ("example", "--for", "json", "--no-t")
ABBREVIATED_SHA256 = "2281cd14820f963ff3d6a60a051c8b06f490d8746a9a5c6143358cc6e0b1056b"


def _run(capsys, main, argv) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


recorded_on_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse's wording differs between Python versions"
)


@recorded_on_311
@pytest.mark.parametrize("argv", GOLDEN, ids=" ".join)
def test_output_and_exit_code_are_the_recorded_ones(argv, columns, capsys):
    assert _run(capsys, cli.main, list(argv)) == GOLDEN[argv]


def test_abbreviated_options_reach_the_default_example(columns, capsys):
    code, out, err = _run(capsys, cli.main, list(ABBREVIATED))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ABBREVIATED_SHA256


@pytest.mark.parametrize(
    "argv", [["eval", "x+y", "--format", "json"], ["--help"], ["props", "--help"], ["bogus"]], ids=" ".join
)
def test_main_without_argv_reads_sys_argv(argv, monkeypatch, columns, capsys):
    given = _run(capsys, cli.main, argv)
    monkeypatch.setattr(sys, "argv", ["rootclose", *argv])
    assert _run(capsys, cli.main, None) == given


@pytest.mark.parametrize("argv", [["--help"], ["bogus"]], ids=" ".join)
def test_the_module_entry_point_runs_main(argv, columns, capsys):
    # `python -m rootclose.cli` prints what main prints and exits with
    # its code: 0 for help, 2 for an unknown command
    given = _run(capsys, cli.main, argv)
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "rootclose.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == given
    assert given[0] == {"--help": 0, "bogus": 2}[argv[0]]


def test_a_call_adds_no_other_commands_options(monkeypatch, capsys):
    add, added = argparse._ActionsContainer.add_argument, set()

    def spy(self, *args, **kwargs):
        added.add(args[0])
        return add(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", spy)
    assert _run(capsys, cli.main, ["eval", "x"])[0] == 0
    assert added == {"-h", "expr", "--check-closure", "--mmax", "--p", "--degree", "--format"}


@pytest.fixture
def built(monkeypatch) -> list[str]:
    """The prog of every ``ArgumentParser`` built while the test runs."""
    init, progs = argparse.ArgumentParser.__init__, []

    def spy(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    return progs


WHOLE_TREE = ["rootclose", *(f"rootclose {name}" for name in cli.COMMANDS)]


def test_a_clean_command_first_call_builds_its_parser_alone(built, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(report.run_example_suite(report.Config(timestamp=False)).to_json())
    for argv in (["eval", "x"], ["example", "--no-timestamp"], ["revalidate", str(path)]):
        built.clear()
        assert _run(capsys, cli.main, argv)[0] == 0
        assert built == [f"rootclose {argv[0]}"]


def test_leftover_arguments_go_through_the_whole_tree(built, capsys):
    assert _run(capsys, cli.main, ["example", "--bogus", "1"])[0] == 2
    assert built == ["rootclose example", *WHOLE_TREE]


def _whole_tree_main(argv: list[str]) -> int:
    """``main`` with every command's options built, as on every call
    before a call built only the named command's."""
    parser = argparse.ArgumentParser(
        prog="rootclose",
        description="Exact verification of root-closure, sequence and Witt-vector constructions",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in cli.COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        command.add_options(sub)
        sub.add_argument("--format", choices=("json", "text"), default="text")
    args = parser.parse_args(argv)
    return cli.COMMANDS[args.command].run(args)


def test_negative_control_the_spy_sees_every_parser_of_the_whole_tree(built, capsys):
    assert _run(capsys, _whole_tree_main, ["eval", "x"])[0] == 0
    assert built == WHOLE_TREE


@pytest.mark.parametrize(
    "argv",
    [
        *GOLDEN,
        ("-5", "eval", "x"),
        ("-", "eval", "x"),
        ("--he",),
        ("eval", "-h"),
        ("eval", "--p", "7", "x^(1/7)"),
        ("eval", "x", "example"),
        ("example", "--help", "eval"),
        ("props", "--seed", "x"),
        ("revalidate",),
        ("revalidate", "-h", "--bogus"),
        ("eval", "--", "x"),
        ("eval", "--", "-x"),
        ("eval", "x", "--p"),
        ("eval", "--format=json", "x"),
        ("eval", "x", "y"),
        ("eval", "x", "--", "--p"),
        ("eval", "x", "-h"),
        ("eval", "x", "--bogus=1"),
        ("example", "extra"),
        ("example", "--p=7", "--de", "2", "--no-t"),
        ("example", "--mode", "weird"),
        ("eval", "x", "--ch", "--f", "json"),
    ],
    ids=" ".join,
)
def test_output_and_exit_code_match_the_whole_tree(argv, columns, capsys):
    assert _run(capsys, cli.main, list(argv)) == _run(capsys, _whole_tree_main, list(argv))
