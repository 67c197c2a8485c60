"""README's "Library use" example runs as written, and its command-line
walkthrough prints what it shows, so the documented API and commands
cannot drift from the code."""

import re
import shlex
from pathlib import Path

from triauth import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(heading: str, end: str) -> str:
    return README.read_text(encoding="utf-8").split(heading, 1)[1].split(end, 1)[0]


def test_the_library_use_example_runs(capsys):
    section = _section("\n## Library use\n", "\n## ")
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Library use", "exec"), {})
    table = capsys.readouterr().out
    for where in ("login/user", "authentication/server", "authentication/user"):
        assert "'%s'" % where in table


def _blocks(text: str) -> list[tuple[str, list[str]]]:
    """(language, lines) of each fenced block of `text`, in order."""
    blocks, open_block = [], None
    for line in text.splitlines():
        if not line.startswith("```"):
            if open_block is not None:
                open_block[1].append(line)
        elif open_block is None:
            open_block = (line[3:], [])
        else:
            blocks.append(open_block)
            open_block = None
    return blocks


def _commands(lines: list[str]) -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) of each `$ triauth ...` command of a
    block; a line ending in a backslash goes on on the next."""
    commands = []
    for line in lines:
        if line.startswith("$ "):
            commands.append([line[2:], []])
        elif commands and commands[-1][0].endswith("\\"):
            commands[-1][0] = commands[-1][0][:-1] + line
        else:
            commands[-1][1].append(line)
    return [(shlex.split(command)[1:], shown) for command, shown in commands]


def _run(capsys, argv: list[str]) -> list[str]:
    """The lines `triauth argv` prints, after checking it exits 0 and
    prints nothing on stderr."""
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out.splitlines()


def test_the_command_line_walkthrough_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    """The baseline walkthrough's three commands print every line shown;
    the improved scheme's, repeated as the README says, print the
    blocked attack's lines and, with the true instants granted from the
    state file's record, the recovery's."""
    section = _section("\n## Command-line walkthrough\n", "\n### Cost report\n")
    blocks = _blocks(section)
    commands = [cmd for language, lines in blocks if language == "sh"
                for cmd in _commands(lines)]
    assert [argv[0] for argv, _ in commands] == ["register", "login-run", "attack"]
    blocked, granted = [lines for language, lines in blocks if language == ""]
    assert granted[-1] == "..."  # the shown lines open the output

    # words.txt, as the README describes it: 17 filler words, then the password
    words = "".join("filler-%02d\n" % i for i in range(1, 18)) + "glacier-42\n"
    for scheme in ("baseline", "improved"):
        (tmp_path / scheme).mkdir()
        monkeypatch.chdir(tmp_path / scheme)
        Path("words.txt").write_text(words, encoding="utf-8")
        printed = []
        for argv, _ in commands:
            if argv[0] == "register":
                argv = argv[:]
                argv[argv.index("--scheme") + 1] = scheme
            printed.append(_run(capsys, argv))
        if scheme == "baseline":
            assert printed == [shown for _, shown in commands]
            continue
        assert printed[2] == blocked
        record = re.search(r"^record: \S+ (\d+) (\d+)$",
                           Path("server.state").read_text(encoding="utf-8"), re.M)
        attack = commands[2][0] + ["--grant-timestamps", "%s,%s" % record.groups()]
        assert _run(capsys, attack)[:len(granted) - 1] == granted[:-1]
