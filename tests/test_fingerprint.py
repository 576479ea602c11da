"""``tools/fingerprint.py`` on canned input: its digests, its compare mode,
and that it reaps every child process it starts."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


@pytest.fixture(scope="module")
def fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_of_text_bytes_and_arrays(fingerprint):
    abc = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    assert fingerprint.digest("abc") == fingerprint.digest(b"abc") == abc
    array = np.array([1.0, -0.0], dtype=np.float32)
    assert fingerprint.digest(array) == hashlib.sha256(b"<f4(2,)" + array.tobytes()).hexdigest()
    # the dtype and shape count, not only the bytes
    assert fingerprint.digest(array.view(np.int32)) != fingerprint.digest(array)
    assert fingerprint.digest(array.reshape(1, 2)) != fingerprint.digest(array)


def write_digests(path, digests):
    path.write_text(json.dumps({"tree": "canned", "digests": digests}), encoding="utf-8")
    return str(path)


def test_compare_lists_every_digest_that_differs(fingerprint, tmp_path, capsys):
    a = write_digests(tmp_path / "a.json", {"flops/toy": "1", "same": "2", "gone": "3"})
    b = write_digests(tmp_path / "b.json", {"flops/toy": "9", "same": "2", "new": "4"})
    assert fingerprint.main(["--compare", a, b]) == 1
    assert capsys.readouterr().out == ("differs: flops/toy\n"
                                       "only in A: gone\n"
                                       "only in B: new\n"
                                       "3 of 4 digests differ\n")
    assert fingerprint.main(["--compare", a, a]) == 0
    assert capsys.readouterr().out == "0 of 3 digests differ\n"


def test_run_children_reaps_every_child_when_one_fails(fingerprint, monkeypatch):
    started = []
    popen = subprocess.Popen

    def recording(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(fingerprint.subprocess, "Popen", recording)
    commands = [([sys.executable, "-c", "raise SystemExit(3)"], None, None),
                ([sys.executable, "-c", "import time; time.sleep(60)"], None, None)]
    with pytest.raises(RuntimeError, match="exited with 3"):
        fingerprint.run_children(commands)
    # the sleeper was killed and reaped, not left running
    assert [child.returncode for child in started] == [3, -9]
