"""tools/ci_local.py: the offline runner of the CI workflow's steps."""

import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "ci_local.py"
_spec = importlib.util.spec_from_file_location("ci_local", _TOOL)
ci_local = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_local)

# one step of each kind; JSON strings are YAML strings
_WORKFLOW = """\
env:
  WANT_PREFIX: %s
jobs:
  demo:
    steps:
      - uses: actions/checkout@v4
      - name: Install tools
        run: python -m pip install pytest
      - name: Passes
        env:
          GREETING: hello
        run: |
          test "$GREETING" = hello
          test -d "$RUNNER_TEMP"
          test "$(python -c 'import sys; print(sys.prefix)')" = "$WANT_PREFIX"
      - name: Fails
        run: |
          echo about to fail
          false | cat
          echo never printed
      - name: Needs a missing module
        run: python -m no_such_module_for_ci_local
"""


def _run(tmp_path, text):
    workflow = tmp_path / "workflow.yml"
    workflow.write_text(text)
    out = io.StringIO()
    return ci_local.run(str(workflow), [sys.executable], [], out=out), out.getvalue()


def test_each_step_is_reported_and_a_failure_sets_the_exit_status(tmp_path):
    pytest.importorskip("yaml")
    status, text = _run(tmp_path, _WORKFLOW % json.dumps(sys.prefix))
    lines = [line for line in text.splitlines() if not line.startswith("    | ")]
    version = "%d.%d.%d" % sys.version_info[:3]
    assert [line.split()[0] for line in lines] == ["SKIP", "SKIP", "PASS", "FAIL", "UNRUNNABLE"]
    assert "uses: actions/checkout@v4 needs the network" in lines[0]
    assert "pip install needs the network" in lines[1]
    assert lines[2].startswith("PASS        %s demo: Passes (" % version)
    # the pipe fails only under pipefail, and the step stops there
    assert lines[3].startswith("FAIL        %s demo: Fails (exit 1, " % version)
    assert "    | about to fail" in text and "never printed" not in text
    assert "No module named 'no_such_module_for_ci_local'" in lines[4]
    assert status == 1


def test_a_workflow_whose_steps_pass_exits_0(tmp_path):
    pytest.importorskip("yaml")
    status, text = _run(tmp_path, "jobs:\n  one:\n    steps:\n      - run: 'true'\n")
    assert (status, text.split()[0]) == (0, "PASS")


def test_without_pyyaml_the_absence_is_reported_not_a_traceback(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "yaml", None)  # import yaml raises ImportError
    status, text = _run(tmp_path, "jobs: {}\n")
    assert status == 2
    assert text.startswith("ci_local: PyYAML is not installed, so ")


def test_an_interpreter_that_cannot_run_reads_unrunnable_and_the_next_one_runs(tmp_path):
    pytest.importorskip("yaml")
    # a version-manager shim for a version that is not selected exits 127;
    # its first non-empty error line names the cause, its last does not
    shim = tmp_path / "python3.99"
    shim.write_text("#!/bin/sh\necho >&2\necho 'pyenv: python3.99: command not found' >&2\n"
                    "echo 'The python3.99 command exists in these versions: 3.99.0' >&2\nexit 127\n")
    shim.chmod(0o755)
    missing = tmp_path / "no" / "python"
    workflow = tmp_path / "workflow.yml"
    workflow.write_text("jobs:\n  one:\n    steps:\n      - name: First\n        run: 'true'\n"
                        "      - name: Second\n        run: 'true'\n")
    out = io.StringIO()
    status = ci_local.run(str(workflow), [str(shim), str(missing), sys.executable], [], out=out)
    lines = out.getvalue().splitlines()
    assert lines[:4] == [
        "UNRUNNABLE  %s one: %s (cannot run: exit 127: pyenv: python3.99: command not found)"
        % (shim, step) for step in ("First", "Second")
    ] + [
        "UNRUNNABLE  %s one: %s (cannot run: [Errno 2] No such file or directory: %r)"
        % (missing, step, str(missing)) for step in ("First", "Second")
    ]
    assert [line.split()[0] for line in lines[4:]] == ["PASS", "PASS"]
    assert status == 0  # the exit-status rule: only a failed step sets it


def test_a_step_runs_with_the_plugin_set_of_ci(tmp_path, monkeypatch):
    pytest.importorskip("yaml")
    # CI installs only pytest and hypothesis, so no other plugin autoloads,
    # and a plugin list of the host's own is dropped
    monkeypatch.setenv("PYTEST_PLUGINS", "a_foreign_plugin")
    status, text = _run(tmp_path, """\
jobs:
  one:
    steps:
      - run: |
          test "$PYTEST_DISABLE_PLUGIN_AUTOLOAD" = 1
          if python -c 'import hypothesis' 2> /dev/null; then want=_hypothesis_pytestplugin; else want=; fi
          test "${PYTEST_PLUGINS-}" = "$want"
""")
    assert (status, text.split()[0]) == (0, "PASS"), text
