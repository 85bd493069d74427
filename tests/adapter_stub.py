"""Deterministic out-of-process adapter used by the test suite.

Speaks the newline-delimited JSON protocol over stdio (default) or a
local socket (--port).  Behavior is intentionally simple so tests can
predict every response:

* train    -> checkpoint "ckpt-<records>x<epochs>"
* generate -> first max_tokens whitespace words of the article, or the
              --fixed-summary text when given

Failure modes for transport tests: --fail-op returns an error response
for one op (only to its first --fail-count requests, when given), --malformed writes a non-JSON line, --crash-after exits
hard after N requests, --delay-op with --delay sleeps that many seconds
before answering one op.  --pid-file records the process id on start, so
a test can check that the process has exited; --request-log appends each
request line to a file as it is read, so a test can hash the wire.
"""

import argparse
import json
import os
import socket
import sys
import time


def handle(request, opts):
    op = request.get("op")
    payload = request.get("payload") or {}
    if opts.fail_op == op and opts.fail_count != 0:
        if opts.fail_count is not None:
            opts.fail_count -= 1
        return {"error": f"stub was told to fail op {op!r}"}
    if op == "train":
        records = payload.get("records") or []
        spec = payload.get("spec") or {}
        if not records:
            return {"error": "train needs records"}
        checkpoint = f"ckpt-{len(records)}x{spec.get('epochs', 0)}"
        return {"result": {"checkpoint": checkpoint}}
    if op == "generate":
        article = payload.get("article", "")
        if not article.strip():
            return {"error": "generate needs an article"}
        if opts.fixed_summary is not None:
            return {"result": {"summary": opts.fixed_summary}}
        words = article.split()[: int(payload.get("max_tokens", 75))]
        return {"result": {"summary": " ".join(words)}}
    return {"error": f"unknown op {op!r}"}


def serve(reader, writer, opts):
    served = 0
    for line in reader:
        if not line.strip():
            continue
        if opts.request_log:
            with open(opts.request_log, "a", encoding="utf-8") as fh:
                fh.write(line)
        request = json.loads(line)
        served += 1
        if opts.crash_after is not None and served > opts.crash_after:
            sys.exit(1)
        if opts.malformed:
            writer.write("this is not a json response\n")
            writer.flush()
            continue
        if opts.delay_op == request.get("op"):
            time.sleep(opts.delay)
        response = {"id": request.get("id")}
        response.update(handle(request, opts))
        writer.write(json.dumps(response, ensure_ascii=False) + "\n")
        writer.flush()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int,
                        help="serve one TCP connection on this port (0 = pick)")
    parser.add_argument("--fail-op")
    parser.add_argument("--fail-count", type=int)
    parser.add_argument("--crash-after", type=int)
    parser.add_argument("--malformed", action="store_true")
    parser.add_argument("--delay-op")
    parser.add_argument("--delay", type=float, default=0.0)
    parser.add_argument("--fixed-summary")
    parser.add_argument("--pid-file")
    parser.add_argument("--request-log")
    opts = parser.parse_args()
    if opts.pid_file:
        with open(opts.pid_file, "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))

    if opts.port is None:
        serve(sys.stdin, sys.stdout, opts)
        return
    with socket.create_server(("127.0.0.1", opts.port)) as server:
        print(server.getsockname()[1], flush=True)
        conn, _ = server.accept()
        with conn, conn.makefile("r", encoding="utf-8") as reader, \
                conn.makefile("w", encoding="utf-8") as writer:
            serve(reader, writer, opts)


if __name__ == "__main__":
    main()
