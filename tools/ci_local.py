"""Run the CI workflow's steps offline, on the interpreters given.

    python tools/ci_local.py [--extra-path DIR]... PYTHON...

Reads .github/workflows/tests.yml (PyYAML is needed to read it, though it
is not a package dependency) and runs every `run:` step of every job, in
order, once per interpreter, from the repository root. Each step runs
under `bash -eo pipefail` with the workflow's, the job's and the step's
`env`, a fresh RUNNER_TEMP, and `python` (and `python3`) on PATH naming
the interpreter under test. The workflow stays the one list of steps:
this script adds none.

Steps that need the network are skipped, each with the reason: `uses:`
steps (checkout, setup-python) and pip installs. A step that runs
`python -m MODULE` for a module the interpreter cannot import is reported
UNRUNNABLE with the import error, not run. Each --extra-path directory
(for example another interpreter's site-packages, for pure-Python test
tools) is added to the interpreter's path through a .pth file in a fresh
user site directory, since a step may set PYTHONPATH itself.

Every step gets CI's pytest plugin set, since CI installs only pytest and
hypothesis: PYTEST_DISABLE_PLUGIN_AUTOLOAD=1, so no other installed
plugin (one an extra path exposes to the wrong interpreter, say) loads,
and PYTEST_PLUGINS=_hypothesis_pytestplugin when the step's python can
import hypothesis.

An interpreter that cannot run (a missing path, or a version-manager
shim that exits 127 because its version is not selected) reads
UNRUNNABLE on every step, with its exit code and first non-empty error
line or the OS error, and the next interpreter runs.

One line per step and interpreter: PASS, FAIL, SKIP or UNRUNNABLE. A
failing step's last output lines follow its line. The exit status is 1
if any step failed, 2 if the workflow cannot be read, else 0.
"""

import argparse
import functools
import os
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")
TAIL_LINES = 20  # of a failing step's output


def _load_steps(path):
    """[(job, step name, step, env)] for every step of every job in order,
    env the workflow's and job's env under the step's own."""
    import yaml

    with open(path, encoding="utf-8") as f:
        workflow = yaml.safe_load(f)
    steps = []
    for job_name, job in workflow["jobs"].items():
        for i, step in enumerate(job.get("steps", [])):
            env = {**workflow.get("env", {}), **job.get("env", {}), **step.get("env", {})}
            name = step.get("name") or step.get("uses") or "step %d" % (i + 1)
            steps.append((job_name, name, step, {k: str(v) for k, v in env.items()}))
    return steps


def _skip_reason(step):
    if "uses" in step:
        return "uses: %s needs the network" % step["uses"]
    if "run" not in step:
        return "no run: script"
    if re.search(r"\bpip\b", step["run"]):
        return "pip install needs the network"
    return None


def _interpreter(python):
    """(executable, version, user site-packages suffix) of an interpreter."""
    code = ("import os, site, sys; print(sys.executable); print('%d.%d.%d' % sys.version_info[:3]); "
            "print(os.path.relpath(site.getusersitepackages(), site.getuserbase()))")
    out = subprocess.run([python, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split("\n")
    return out[0], out[1], out[2]


def _environment(executable, user_site, extra_paths, step_env, work):
    """The environment of one step: a fresh RUNNER_TEMP, python first on
    PATH, and the extra paths in a .pth file of a fresh user site."""
    bin_dir = os.path.join(work, "bin")
    os.makedirs(bin_dir)
    for name in ("python", "python3"):
        os.symlink(executable, os.path.join(bin_dir, name))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("PYTEST_PLUGINS", None)
    env["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
    env.update(step_env)
    env["PATH"] = bin_dir + os.pathsep + env.get("PATH", "")
    env["RUNNER_TEMP"] = os.path.join(work, "runner_temp")
    os.makedirs(env["RUNNER_TEMP"])
    env["PYTHONUSERBASE"] = os.path.join(work, "userbase")
    if extra_paths:
        site_dir = os.path.join(env["PYTHONUSERBASE"], user_site)
        os.makedirs(site_dir)
        with open(os.path.join(site_dir, "ci_local.pth"), "w", encoding="utf-8") as f:
            f.write("".join(os.path.abspath(p) + "\n" for p in extra_paths))
    if _import_error("hypothesis", env) is None:
        env["PYTEST_PLUGINS"] = "_hypothesis_pytestplugin"
    return env


def _import_error(module, env):
    """The last line of the error the step's python raises importing
    module, or None when it imports."""
    probe = subprocess.run(["python", "-c", "import " + module], cwd=ROOT, env=env,
                           capture_output=True, text=True)
    if probe.returncode:
        return (probe.stderr.strip().splitlines() or ["exit %d" % probe.returncode])[-1]
    return None


def _missing_module(script, env):
    """The import error of the first `python -m MODULE` in script that the
    step's python cannot import, or None."""
    for module in dict.fromkeys(re.findall(r"\bpython3? -m ([\w.]+)", script)):
        error = _import_error(module, env)
        if error:
            return "python -m %s: %s" % (module, error)
    return None


def run(workflow, pythons, extra_paths, out=sys.stdout):
    """Run the workflow's steps on each interpreter; the exit status."""
    say = functools.partial(print, file=out, flush=True)  # a line as each step ends
    try:
        steps = _load_steps(workflow)
    except ImportError:
        say("ci_local: PyYAML is not installed, so %s cannot be read; install it "
            "(pip install pyyaml) or run under an interpreter that has it" % workflow)
        return 2
    failed = False
    for python in pythons:
        try:
            executable, version, user_site = _interpreter(python)
        except (subprocess.CalledProcessError, OSError) as exc:
            problem = str(exc)  # an OSError's own text
            if isinstance(exc, subprocess.CalledProcessError):
                lines = [line.strip() for line in exc.stderr.splitlines() if line.strip()]
                problem = "exit %d: %s" % (exc.returncode, (lines or ["no error output"])[0])
            for job, name, _, _ in steps:
                say("UNRUNNABLE  %s %s: %s (cannot run: %s)" % (python, job, name, problem))
            continue
        for job, name, step, step_env in steps:
            label = "%s %s: %s" % (version, job, name)
            reason = _skip_reason(step)
            if reason:
                say("SKIP        %s (%s)" % (label, reason))
                continue
            with tempfile.TemporaryDirectory(prefix="ci_local_") as work:
                env = _environment(executable, user_site, extra_paths, step_env, work)
                missing = _missing_module(step["run"], env)
                if missing:
                    say("UNRUNNABLE  %s (%s)" % (label, missing))
                    continue
                script = os.path.join(work, "step.sh")
                with open(script, "w", encoding="utf-8") as f:
                    f.write(step["run"])
                start = time.perf_counter()
                done = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", script],
                                      cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True)
                seconds = time.perf_counter() - start
            if done.returncode == 0:
                say("PASS        %s (%.1f s)" % (label, seconds))
            else:
                failed = True
                say("FAIL        %s (exit %d, %.1f s)" % (label, done.returncode, seconds))
                for line in done.stdout.splitlines()[-TAIL_LINES:]:
                    say("    | " + line)
    return 1 if failed else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--extra-path", action="append", default=[], metavar="DIR",
                   help="a directory to add to each interpreter's path (repeatable)")
    p.add_argument("pythons", nargs="+", metavar="PYTHON", help="interpreters to run the steps on")
    args = p.parse_args(argv)
    return run(WORKFLOW, args.pythons, args.extra_path)


if __name__ == "__main__":
    sys.exit(main())
