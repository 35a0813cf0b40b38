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
