#!/usr/bin/env python3
"""Repository benchmark: runs one named workload from a seed and prints every
metric of BENCHMARK.json with its unit.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds the program and the
driver (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR or .bench_build.
Each workload spawns `pa_serve publish` and `pa_serve listen --shards 2` and
drives the server with the compiled load generator. `--trace 1` is the
traced run: the server runs with PA_OBS_TRACE set, the driver records its
own spans around in-process layer calls, per-layer self time is printed, and
the metrics are the per-layer ones. The last stdout line is the result:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

`--selftest` builds and runs the benchmark's own tests instead.
"""

import argparse
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_hot", "serve_churn")
SHARDS = 2
DEADLINE_MS = 10000
DRIVER_TIMEOUT_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Abort(Exception):
    pass


def on_signal(signum, _frame):
    raise Abort(f"signal {signum}")


def build(root, targets):
    """Configures and builds the benchmark package; returns the build dir."""
    src = os.path.join(root, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        raise Abort(f"{src} not found: run from the repository root")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                   + targets, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir


class Processes:
    """Every child process of a run; all are stopped and reaped on exit.

    A server still running is first sent {"op":"quit"}, then SIGTERM (which
    pa_serve also treats as a graceful drain), then SIGKILL.
    """

    def __init__(self):
        self.children = []
        self.quit_ports = {}

    def spawn(self, argv, **kw):
        proc = subprocess.Popen(argv, **kw)
        self.children.append(proc)
        return proc

    def stop_all(self):
        for proc in self.children:
            if proc.poll() is None and proc.pid in self.quit_ports:
                try:
                    send_quit(self.quit_ports[proc.pid])
                    proc.wait(timeout=10)
                except (OSError, subprocess.TimeoutExpired):
                    pass
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()


def send_quit(port):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(b'{"op":"quit"}\n')
        s.settimeout(10)
        try:
            s.recv(4096)
        except OSError:
            pass


def start_server(procs, pa_serve, store, env, deadline):
    """Spawns `pa_serve listen` and returns (proc, port, stderr lines)."""
    # The deadline is far above any closed-loop wait, so a stall of the
    # shared host delays requests instead of shedding them: the share of
    # failed operations must not depend on the host's speed.
    proc = procs.spawn([pa_serve, "listen", "--store", store, "--model", "LSTM",
                        "--port", "0", "--shards", str(SHARDS),
                        "--deadline-ms", str(DEADLINE_MS)],
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True, env=env)
    lines = []
    port_found = threading.Event()
    port = [0]

    def reader():
        for line in proc.stderr:
            lines.append(line.rstrip())
            m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if m and not port_found.is_set():
                port[0] = int(m.group(1))
                port_found.set()
        port_found.set()

    threading.Thread(target=reader, daemon=True).start()
    if not port_found.wait(timeout=max(1.0, deadline - time.monotonic())) \
            or port[0] == 0:
        raise Abort("pa_serve listen did not announce a port: "
                    + " | ".join(lines[-5:]))
    return proc, port[0], lines


def run_driver(procs, argv, env):
    proc = procs.spawn(argv, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Abort("driver timed out")
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise Abort(f"driver exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize_trace(root, path, title):
    """Prints per-span self time through the repository's trace reader."""
    script = os.path.join(root, "scripts", "trace_summary.py")
    if not os.path.isfile(path):
        print(f"[{title}] no trace written")
        return
    print(f"[{title}] per-layer self time ({os.path.getsize(path)} bytes):")
    res = subprocess.run([sys.executable, script, path, "--top", "14"],
                         capture_output=True, text=True, timeout=120)
    text = res.stdout if res.returncode == 0 else res.stderr
    for line in text.splitlines():
        print("  " + line)


def run(args, root, procs, scratch):
    build_dir = build(root, ["pa_perfbench", "pa_serve_cli"])
    driver = os.path.join(build_dir, "pa_perfbench")
    pa_serve = os.path.join(build_dir, "repo_src", "serve", "pa_serve")
    plan = json.loads(subprocess.run(
        [driver, "plan", "--workload", args.workload], check=True,
        capture_output=True, text=True).stdout)
    print(f"host: nproc={os.cpu_count()} simd={plan['simd']} build=Release")

    trace_flags = []
    driver_trace = os.path.join(scratch, "driver_trace.json")
    if args.trace:
        trace_flags = ["--trace-out", driver_trace, "--scratch", scratch]
    env = dict(os.environ)
    env.pop("PA_OBS_TRACE", None)
    server_env = dict(env)
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds)]

    store = os.path.join(scratch, "store")
    server_trace = os.path.join(scratch, "server_trace.json")
    if args.trace:
        server_env["PA_OBS_TRACE"] = server_trace
    # Set-up: publish (train + artifact write) and server start until it
    # announces its port. The build is never inside this window.
    t0 = time.monotonic()
    pub = subprocess.run([pa_serve, "publish", "--store", store,
                          "--method", "LSTM"] + plan["publish"],
                         capture_output=True, text=True, timeout=120)
    if pub.returncode != 0:
        raise Abort("pa_serve publish failed: " + pub.stderr[-500:])
    server, port, _ = start_server(procs, pa_serve, store, server_env, t0 + 60)
    setup_s = time.monotonic() - t0
    procs.quit_ports[server.pid] = port
    result = run_driver(procs, [driver, "serve", "--workload", args.workload,
                                "--port", str(port), "--server-pid",
                                str(server.pid), "--store", store]
                        + common + trace_flags, env)
    result["e2e"]["setup_s"] = setup_s
    send_quit(port)
    try:
        code = server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        code = None
    server_ok = code == 0
    if not server_ok:
        result["errors"].append(f"pa_serve exited {code} after quit")
    if args.trace:
        summarize_trace(root, server_trace, "pa_serve listen")

    if args.trace:
        summarize_trace(root, driver_trace, "benchmark + in-process program")
        e2e = " ".join(f"{k}={v:.6g}" for k, v in sorted(result["e2e"].items()))
        print(f"traced e2e: {e2e}")
    info = " ".join(f"{k}={v:.6g}" for k, v in sorted(result["info"].items()))
    print(f"info: {info}")
    for err in result["errors"]:
        print(f"check failed: {err}")

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = result["layer"] if args.trace else result["e2e"]
    metrics = {}
    correct = result["correct"] and server_ok
    for m in wanted:
        if m["name"] not in source:
            print(f"check failed: metric {m['name']} not measured")
            correct = False
            continue
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    root = os.getcwd()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    if args.selftest:
        build_dir = build(root, ["pa_perfbench_test"])
        return subprocess.run([os.path.join(build_dir, "pa_perfbench_test")]
                              ).returncode
    if not args.workload:
        parser.error("--workload is required")

    procs = Processes()
    scratch = os.path.join(root, ".perfbench_tmp", f"run-{os.getpid()}")
    try:
        os.makedirs(scratch, exist_ok=True)
        result = run(args, root, procs, scratch)
    except (Abort, subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log(f"run failed: {e}")
        return 1
    finally:
        procs.stop_all()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
