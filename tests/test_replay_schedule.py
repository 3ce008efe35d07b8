"""Smoke test of ``benchmarks/replay_schedule.py``: capture one small
fig10 instance and the churn streams, replay them for one pair, and
fail on a changed plan."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REPLAY = ROOT / "benchmarks" / "replay_schedule.py"
SRC = ROOT / "src"


def replay(*args):
    return subprocess.run([sys.executable, str(REPLAY), *map(str, args)],
                          capture_output=True, text=True, check=False,
                          timeout=300)


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    path = tmp_path_factory.mktemp("replay") / "capture.json"
    completed = replay("capture", "--src", SRC, "--out", path,
                       "--scale", 0.2)
    assert completed.returncode == 0, completed.stderr
    return path


def test_one_pair_replays_every_plan(capture):
    completed = replay("run", "--capture", capture, "--parent-src", SRC,
                       "--change-src", SRC, "--pairs", 1, "--steps")
    assert completed.returncode == 0, completed.stderr
    assert "change faster in" in completed.stdout
    assert "allocate_machines" in completed.stdout


def test_a_plan_that_differs_from_the_capture_fails(capture, tmp_path):
    data = json.loads(capture.read_text())
    planned = next(event for event in data["events"]
                   if event["kind"] == "schedule" and event["plan"])
    planned["plan"][1] = (0.5).hex()
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    completed = replay("run", "--capture", tampered, "--parent-src", SRC,
                       "--change-src", SRC, "--pairs", 1)
    assert completed.returncode == 1
    assert "differ from the capture" in completed.stderr


def test_churn_capture_replays_every_plan(tmp_path):
    path = tmp_path / "churn.json"
    completed = replay("capture", "--src", SRC, "--out", path,
                       "--workload", "churn")
    assert completed.returncode == 0, completed.stderr
    streams = {event["stream"] for event
               in json.loads(path.read_text())["events"]}
    assert streams == {0, 1}
    completed = replay("run", "--capture", path, "--parent-src", SRC,
                       "--change-src", SRC, "--pairs", 1, "--steps")
    assert completed.returncode == 0, completed.stderr
    one_job = next(line for line in completed.stdout.splitlines()
                   if "one-job fill" in line)
    assert "-" not in one_job.split()[-2:]
