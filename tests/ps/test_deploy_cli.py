"""``python -m repro.ps serve`` / ``worker``: the two-terminal deployment.

The server runs as its own OS process; the worker runs in this one.  Both
sides go through the multi-process trainer's ``serve`` / ``run_worker``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

from repro.ps.__main__ import main


def test_serve_and_worker_processes_train_to_completion(tmp_path, capsys):
    ckpt = tmp_path / "cli.ckpt"
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.ps", "serve",
            "--bind", "127.0.0.1:0", "--workers", "1", "--iterations", "5",
            "--checkpoint-every", "5", "--checkpoint", str(ckpt),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    try:
        banner = server.stderr.readline()
        port = re.search(r"127\.0\.0\.1:(\d+)", banner).group(1)
        assert main(
            ["worker", "--connect", f"127.0.0.1:{port}", "--id", "0",
             "--workers", "1", "--iterations", "5"]
        ) == 0
        out, err = server.communicate(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)
    assert server.returncode == 0, err
    assert "worker 0 done: 5 iterations" in capsys.readouterr().out
    assert re.search(r"done: t=5 .*joins=1 leaves=1 crashes=0 evictions=0", out), out
    assert f"checkpoint written to {ckpt}" in err
    assert ckpt.exists()
