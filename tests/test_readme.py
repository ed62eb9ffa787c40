"""README.md's examples run as written.

Every ```python block and every `trajrules ...` line of the other fenced
blocks runs in document order, with backslash continuations joined, in a
scratch directory where `fixtures/mock` resolves to the repository's mock
fixtures. Python blocks share one namespace, as a reader pasting them in
order into one session would.
"""
import re
import shlex
from pathlib import Path

from trajrules import cli

ROOT = Path(__file__).resolve().parent.parent
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_readme_examples_run_as_written(tmp_path, monkeypatch, capsys):
    (tmp_path / "fixtures").mkdir()
    (tmp_path / "fixtures" / "mock").symlink_to(ROOT / "fixtures" / "mock")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    commands, snippets = [], 0
    for lang, body in FENCE.findall((ROOT / "README.md").read_text(encoding="utf-8")):
        if lang == "python":
            exec(compile(body, f"README.md python block {snippets}", "exec"), namespace)
            snippets += 1
            continue
        for line in body.replace("\\\n", " ").splitlines():
            if line.startswith("trajrules "):
                argv = shlex.split(line)
                assert cli.main(argv[1:]) == 0, (line, capsys.readouterr().err)
                commands.append(argv[1])
    assert snippets >= 3
    assert set(commands) == {"synth", "features", "discover", "verify", "classify",
                             "predict", "evaluate"}
