#!/usr/bin/env python3
"""Build gocured's benchmark and ccserve from this checkout, then run it.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Every build output, the Go build cache,
server logs, span files and temporary stores go under .bench_build/ in the
checkout; nothing is fetched (GOPROXY=off). The arguments are passed to the
benchmark program (perfbench/main.go), which prints its result as the last
line of its output. A build failure exits non-zero without a result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "-buildvcs=false",
    })
    bench = os.path.join(BUILD, "bin", "perfbench")
    ccserve = os.path.join(BUILD, "bin", "ccserve")
    for cwd, out, pkg in ((os.path.join(ROOT, "perfbench"), bench, "."),
                          (ROOT, ccserve, "./cmd/ccserve")):
        build = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if build.returncode != 0:
            sys.stderr.write("perfbench: build of %s failed:\n%s" % (pkg, build.stderr))
            sys.exit(2)
    os.chdir(ROOT)
    os.execve(bench, [bench, "--root", ROOT, "--ccserve", ccserve] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
