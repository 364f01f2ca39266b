"""A failed write to stdout keeps the exit contract.

A reader that stops early, as ``head`` does, breaks the pipe: ``stride``
then stops writing and exits with the command's own code, printing
nothing.  Any other failed write, such as to a full disk, prints one
``error:`` line and exits 3.  Both are checked in a fresh interpreter
writing to a real pipe or device, with stdout buffered and unbuffered,
since the interpreter's last flush at exit must stay quiet too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stride
from stride.fixtures import fixture_text

SRC = str(Path(stride.__file__).resolve().parent.parent)


@pytest.fixture(params=["buffered", "unbuffered"])
def env(request, tmp_path):
    environ = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if request.param == "unbuffered":
        environ["PYTHONUNBUFFERED"] = "1"
    return {**environ, "PYTHONPATH": SRC, "STRIDE_STORE": str(tmp_path / "runs")}


def _stride(*argv: str) -> list[str]:
    return [sys.executable, "-m", "stride.cli", *argv]


def _manifest(tmp_path, broken: bool = False) -> str:
    document = json.loads(fixture_text("luxshare_manifest.json"))
    if broken:
        document["coverage"]["countries_total"] = 0
        document["temporal"]["decay_rate"] = -1
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def _long_curve(tmp_path) -> list[str]:
    """A curve command whose output, about 400 kB, is far more than a pipe holds."""
    population = tmp_path / "population.json"
    records = [{"record_id": f"r{i}", "region": "apac" if i % 3 else "emea"} for i in range(100)]
    population.write_text(json.dumps(records), encoding="utf-8")
    argv = ["sample", "curve", "--population", str(population), "--criterion", "region", "--seed", "1"]
    return _stride(*argv, "--sizes", ",".join(["1,2,3"] * 6000))


def _into_closed_pipe(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run ``argv`` with stdout on a pipe whose reader has already gone."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            argv, stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, encoding="utf-8", timeout=60
        )
    finally:
        os.close(write_end)


class TestBrokenPipe:
    def test_reader_that_stops_after_one_line(self, tmp_path, env):
        process = subprocess.Popen(_long_curve(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            first = process.stdout.readline()
            process.stdout.close()
            errors = process.stderr.read()
            code = process.wait(timeout=60)
        finally:
            process.kill()
            process.stderr.close()
        assert first == b"sample_size,divergence\n"
        assert (code, errors) == (0, b"")

    def test_a_failed_validation_keeps_its_code(self, tmp_path, env):
        done = _into_closed_pipe(_stride("validate", "--manifest", _manifest(tmp_path, broken=True)), env)
        assert (done.returncode, done.stderr) == (2, "")

    def test_a_passed_validation_exits_0(self, tmp_path, env):
        done = _into_closed_pipe(_stride("validate", "--manifest", _manifest(tmp_path)), env)
        assert (done.returncode, done.stderr) == (0, "")

    def test_bad_input_is_still_reported(self, tmp_path, env):
        done = _into_closed_pipe(_stride("validate", "--manifest", str(tmp_path / "missing.json")), env)
        assert done.returncode == 2
        assert done.stderr.startswith("error: cannot read manifest file") and done.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
class TestFullDevice:
    def _into_full_device(self, argv: list[str], env: dict) -> subprocess.CompletedProcess:
        with open("/dev/full", "wb") as full:
            return subprocess.run(
                argv, stdout=full, stderr=subprocess.PIPE, env=env, text=True, encoding="utf-8", timeout=60
            )

    def test_validate_prints_one_error_line_and_exits_3(self, tmp_path, env):
        done = self._into_full_device(_stride("validate", "--manifest", _manifest(tmp_path)), env)
        assert done.returncode == 3
        assert done.stderr == "error: cannot write output: [Errno 28] No space left on device\n"

    def test_long_output_prints_one_error_line_and_exits_3(self, tmp_path, env):
        done = self._into_full_device(_long_curve(tmp_path), env)
        assert done.returncode == 3
        assert done.stderr == "error: cannot write output: [Errno 28] No space left on device\n"

    def test_score_has_saved_its_run_when_the_write_fails(self, tmp_path, env):
        done = self._into_full_device(_stride("score", "--manifest", _manifest(tmp_path), "--weights", "equal"), env)
        assert done.returncode == 3
        saved, error = done.stderr.splitlines()
        assert saved.startswith("run saved: ")
        assert error == "error: cannot write output: [Errno 28] No space left on device"
        assert (Path(env["STRIDE_STORE"]) / f"{saved.split()[-1]}.json").is_file()


@pytest.mark.skipif(os.name != "posix", reason="closes the child's stdout before it starts")
class TestClosedStdout:
    def _with_stdout_closed(self, argv: list[str], env: dict) -> subprocess.CompletedProcess:
        return subprocess.run(
            argv,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            encoding="utf-8",
            timeout=60,
            preexec_fn=lambda: os.close(1),
        )

    def test_output_that_cannot_be_written_exits_3(self, tmp_path, env):
        done = self._with_stdout_closed(_stride("validate", "--manifest", _manifest(tmp_path)), env)
        assert (done.returncode, done.stderr) == (3, "error: cannot write output: stdout is closed\n")

    def test_a_command_without_output_exits_0(self, tmp_path, env):
        out = tmp_path / "report.json"
        argv = _stride("score", "--manifest", _manifest(tmp_path), "--weights", "equal", "--out", str(out))
        done = self._with_stdout_closed(argv, env)
        assert done.returncode == 0 and done.stderr.startswith("run saved: ") and out.is_file()
