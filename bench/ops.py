"""Running one op: a CLI call with stdout captured, optionally in a forked
child so that no library state (caches included) outlives the op."""

import contextlib
import io
import json
import os
import time
import traceback


def run_cli(argv):
    """liex.cli.main(argv) with stdout captured; returns (exit code, text)."""
    from liex import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as e:   # argparse usage errors
            rc = e.code
    return rc, buf.getvalue()


def forked(fn):
    """Run fn(t0) in a forked child and return (payload, peak RSS in kB).

    t0 is the perf_counter reading taken just before the fork; the clock is
    system-wide, so the child can report t_end and the caller gets the op's
    latency, fork included, as payload["t_end"] - t0.  fn returns a JSON
    object.  A child that raises or dies yields a payload with an "error".
    """
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            try:
                payload = fn(t0)
            except BaseException:
                payload = {"error": traceback.format_exc()}
            with os.fdopen(w, "wb") as fh:
                fh.write(json.dumps(payload).encode())
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if not data:
        return {"error": "child ended with status %d and no result" % status}, usage.ru_maxrss
    return json.loads(data), usage.ru_maxrss


def scan_cache_info():
    """(hits, misses) of the search module's span-scan cache, or (0, 0)
    when it has none."""
    from liex import search
    scan = search.scan_3dim_subalgebras
    while not hasattr(scan, "cache_info") and hasattr(scan, "__wrapped__"):
        scan = scan.__wrapped__    # under a tracing wrapper
    if not hasattr(scan, "cache_info"):
        return 0, 0
    info = scan.cache_info()
    return info.hits, info.misses
