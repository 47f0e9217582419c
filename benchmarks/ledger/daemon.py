"""The mining daemon as a child process of the benchmark.

The daemon is started exactly as an operator would start it
(``python -m repro.serve``), on an ephemeral port parsed from its
``serving`` line, and stopped through ``POST /shutdown`` with a kill
fallback.  Its peak resident set is read from ``/proc`` before
shutdown, so serve workloads report the *daemon's* memory, not the
load generator's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import List, Set

from repro.serve.client import ServeClient, ServeError

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
TENANTS = os.path.join(HERE, "tenants.json")


def shm_segments() -> Set[str]:
    """Python shared-memory segments under /dev/shm (``repro.graph.shm``
    lets the stdlib name its segments ``psm_*``); empty where the
    platform has no /dev/shm."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


class Daemon:
    """One ``python -m repro.serve`` child on an ephemeral port."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._shm_before = shm_segments()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--port", "0",
                "--max-concurrent", "2",
                "--admission", "warn",
                "--tenant-config", TENANTS,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        try:
            host, _, port = json.loads(line)["serving"].rpartition(":")
        except (ValueError, KeyError):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.host = host
        self.port = int(port)

    def client(self) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=120.0)

    def peak_rss_mb(self) -> float:
        """The daemon's VmHWM (peak resident set) in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self) -> List[str]:
        """Shut the daemon down and wait for it; returns the problems
        seen (unclean exit, leaked shared-memory segments)."""
        problems: List[str] = []
        if self.proc.poll() is None:
            try:
                self.client().shutdown()
            except (OSError, ServeError) as exc:
                problems.append(f"shutdown request failed: {exc}")
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                problems.append("daemon ignored /shutdown; killed")
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            problems.append(f"daemon exit code {self.proc.returncode}")
        leaked = sorted(shm_segments() - self._shm_before)
        if leaked:
            problems.append(f"leaked shm segments: {leaked}")
        return problems


def prometheus_value(text: str, name: str) -> float:
    """Sum of the samples of one metric family in Prometheus text."""
    total = 0.0
    for line in text.splitlines():
        head, _, value = line.rpartition(" ")
        if head.partition("{")[0] == name:
            total += float(value)
    return total
