"""What the driver needs around the system under test: the server
process handle, /proc readers, the byte-counting socket, and the
calibration points that put both CPUs on the one time base."""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import time

from timebase import IO_REF_NS, Calibrator, IoCalibrator, speed_factor

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")
WORK_ROOT = os.path.join(HERE, ".work")

#: how long the driver waits for any one line from the launcher
REPLY_TIMEOUT_S = 60.0


class HarnessError(Exception):
    """The benchmark's own plumbing failed (not a measured failure)."""


def pick_cpus() -> tuple[int, int]:
    """(driver CPU, server CPU): different CPUs when the affinity mask
    allows, else the same one twice."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[1 % len(allowed)]


class WorkDir:
    """A run's scratch directory inside the benchmark's own directory;
    removed on exit, whatever happened."""

    def __init__(self) -> None:
        self.path = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
        self._count = 0

    def __enter__(self) -> "WorkDir":
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def __exit__(self, *_exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)        # only when no other run is live
        except OSError:
            pass

    def fresh(self) -> str:
        self._count += 1
        path = os.path.join(self.path, f"data-{self._count}")
        os.makedirs(path)
        return path


def launcher_argv(shape_args: list[str], data_dir: str, port: int) -> list:
    """The launcher's whole command line: the deployment shape, where to
    keep the store, where to listen -- no workload name, no seed."""
    return [sys.executable, LAUNCHER, *shape_args,
            "--data-dir", data_dir, "--port", str(port)]


class ServerProcess:
    """One launcher subprocess, pinned to ``cpu``; blocks until the
    server is listening."""

    live: list["ServerProcess"] = []

    def __init__(self, shape_args: list[str], data_dir: str, port: int = 0,
                 cpu: int | None = None) -> None:
        env = {k: v for k, v in os.environ.items() if k != "REPRO_OBS"}
        self.proc = subprocess.Popen(
            launcher_argv(shape_args, data_dir, port),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0, env=env)
        ServerProcess.live.append(self)
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self._buffer = b""
        self.ready = self._read("ready")
        self.port = int(self.ready["port"])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _read(self, event: str) -> dict:
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise HarnessError(f"launcher sent no {event!r} line in time")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise HarnessError(
                    f"launcher exited (code {self.proc.wait()}) "
                    f"before its {event!r} line")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        reply = json.loads(line)
        if reply.get("event") != event:
            raise HarnessError(f"expected {event!r}, launcher said {reply!r}")
        return reply

    def ask(self, command: str, event: str) -> dict:
        self.proc.stdin.write(command.encode("ascii") + b"\n")
        return self._read(event)

    # -- /proc ---------------------------------------------------------------

    def cpu_ns(self) -> int:
        """CPU time of every thread of the server, in nanoseconds."""
        base = f"/proc/{self.pid}/task"
        total = 0
        for task in os.listdir(base):
            try:
                with open(f"{base}/{task}/schedstat", "rb") as handle:
                    total += int(handle.read().split()[0])
            except FileNotFoundError:      # the thread just ended
                continue
        return total

    def wchar(self) -> int:
        """Bytes the server passed to write()-family calls; socket
        sends go through send() and are not counted here."""
        with open(f"/proc/{self.pid}/io", "rb") as handle:
            for line in handle:
                if line.startswith(b"wchar:"):
                    return int(line.split()[1])
        raise HarnessError("no wchar in /proc/<pid>/io")

    def rss_mb(self) -> tuple[float, float]:
        """(peak, current) resident set size in MB."""
        fields = {}
        with open(f"/proc/{self.pid}/status", "rb") as handle:
            for line in handle:
                name, _, rest = line.partition(b":")
                if name in (b"VmHWM", b"VmRSS"):
                    fields[name] = int(rest.split()[0]) / 1024.0
        return fields[b"VmHWM"], fields[b"VmRSS"]

    # -- ending it -----------------------------------------------------------

    def _reap(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        ServerProcess.live.remove(self)

    def terminate(self) -> dict:
        """SIGTERM; returns the launcher's rusage line."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            usage = self._read("exit")
        finally:
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
            self._reap()
        return usage

    def kill(self) -> None:
        """SIGKILL: what the durability promise is tested against."""
        self.proc.kill()
        self._reap()

    @classmethod
    def kill_all(cls) -> None:
        for server in list(cls.live):
            server.kill()


class CountingSocket(socket.socket):
    """A socket that adds what it sends and receives to ``tally``."""

    tally: list[int]

    @classmethod
    def adopt(cls, sock: socket.socket, tally: list[int]) -> "CountingSocket":
        timeout = sock.gettimeout()
        counted = cls(sock.family, sock.type, sock.proto, fileno=sock.detach())
        counted.settimeout(timeout)
        counted.tally = tally
        return counted

    def sendall(self, data, *flags) -> None:
        self.tally[0] += len(data)
        return super().sendall(data, *flags)

    def recv(self, size, *flags) -> bytes:
        chunk = super().recv(size, *flags)
        self.tally[1] += len(chunk)
        return chunk


def io_stall_us() -> int:
    """Microseconds some task of this host has been stalled on block
    I/O, from the kernel's pressure accounting -- the disk wait of the
    server as seen from outside it.  0 where the kernel does not keep
    it; disk wait then stays in the unscaled part of every time."""
    try:
        with open("/proc/pressure/io", "rb") as handle:
            for line in handle:
                if line.startswith(b"some"):
                    return int(line.rsplit(b"total=", 1)[1])
    except OSError:
        pass
    return 0


def stolen_ticks(cpus) -> int:
    """Clock ticks the hypervisor reports having taken from ``cpus``."""
    wanted = {b"cpu%d" % cpu for cpu in cpus}
    total = 0
    with open("/proc/stat", "rb") as handle:
        for line in handle:
            fields = line.split()
            if fields[0] in wanted:
                total += int(fields[8])
    return total


class Slicer:
    """Calibration points: one CPU slice on the driver's CPU, one on the
    server's (idle whenever the driver is between operations of a
    closed loop), and one fsync slice on the server's filesystem --
    ``repeat`` of each where the workload leaves room for them.  The
    time the points took is kept so it can be subtracted from whatever
    surrounded them."""

    def __init__(self, own_cpu: int, server_cpu: int, scratch: str,
                 repeat: int = 1) -> None:
        self._own_cpu = own_cpu
        self._server_cpu = server_cpu
        self._repeat = repeat
        self._calibrator = Calibrator()
        self._io = IoCalibrator(scratch)
        os.sched_setaffinity(0, {own_cpu})
        self.reset()
        for _ in range(8):                 # touch the table on both CPUs
            self.point()
        self.reset()

    def close(self) -> None:
        self._io.close()

    def reset(self) -> None:
        self.own_ns: list[int] = []
        self.server_ns: list[int] = []
        self.io_ns: list[int] = []
        self.wall_ns = 0
        self.cpu_ns = 0

    def point(self) -> None:
        wall = time.perf_counter_ns()
        cpu = time.process_time_ns()
        repeat = range(self._repeat)
        self.own_ns += [self._calibrator.slice_ns() for _ in repeat]
        if self._server_cpu != self._own_cpu:
            os.sched_setaffinity(0, {self._server_cpu})
            self.server_ns += [self._calibrator.slice_ns() for _ in repeat]
            os.sched_setaffinity(0, {self._own_cpu})
        self.io_ns += [self._io.slice_ns() for _ in repeat]
        self.cpu_ns += time.process_time_ns() - cpu
        self.wall_ns += time.perf_counter_ns() - wall

    def take(self) -> dict:
        """Everything since the last take, as speed factors and the
        slices' own cost; resets the collection."""
        taken = {
            "f_client": speed_factor(self.own_ns),
            "f_server": speed_factor(self.server_ns or self.own_ns),
            "f_io": speed_factor(self.io_ns, IO_REF_NS),
            "cpu_slices_ns": self.own_ns + self.server_ns,
            "io_slices_ns": self.io_ns,
            "wall_ns": self.wall_ns,
            "cpu_ns": self.cpu_ns,
        }
        self.reset()
        return taken
