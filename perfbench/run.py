#!/usr/bin/env python3
"""Build and run the serving benchmark (rim_perfbench).

Usage, from the repository root:

    python3 perfbench/run.py --workload routed_reads --seed 1 --seconds 10 --trace 0

Configures perfbench/ (which builds librim from src/) into .bench_build,
builds it, and runs rim_perfbench with the same arguments. The last line
of standard output is the benchmark's JSON result; build output goes to
standard error. Extra arguments (for example --wrong-digest) are passed
through to rim_perfbench.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    # The CARGO_TARGET_DIR convention names the checkout's build directory;
    # a relative value is taken from the repository root.
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def source_digest():
    """sha256 over the sources the benchmark builds (src/, bench/, perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".hpp", ".cpp", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(out_dir):
    jobs = str(min(os.cpu_count() or 1, 8))
    if not (out_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out_dir), "--target", "rim_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return out_dir / "rim_perfbench"


def main(argv):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"librim sources not found under {ROOT / 'src'}")
        return 2
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2
    command = [str(binary), *argv,
               "--out-dir", str(ROOT / ".bench_out"),
               "--git-sha", git_sha(),
               "--src-digest", source_digest()]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
