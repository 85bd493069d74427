"""Deterministic echo adapter for the end-to-end benchmark.

Speaks the package's newline-delimited JSON adapter protocol over
stdio, one request per line ``{"op", "payload", "id"}`` and one reply
per line ``{"id", "result"}`` or ``{"id", "error"}``:

* train    -> {"checkpoint": "echo-<number of train records>"}
* generate -> {"summary": the first max_tokens whitespace words of the article}

It exits when its stdin closes.
"""

import json
import sys


def handle(op, payload):
    if op == "train":
        records = payload.get("records") or []
        if not records:
            return {"error": "train needs records"}
        return {"result": {"checkpoint": f"echo-{len(records)}"}}
    if op == "generate":
        words = payload.get("article", "").split()
        if not words:
            return {"error": "generate needs an article"}
        return {"result": {"summary": " ".join(words[: int(payload["max_tokens"])])}}
    return {"error": f"unknown op {op!r}"}


def main():
    sys.stdin.reconfigure(encoding="utf-8")
    sys.stdout.reconfigure(encoding="utf-8")
    for line in sys.stdin:
        if not line.strip():
            continue
        request = json.loads(line)
        response = {"id": request.get("id")}
        response.update(handle(request.get("op"), request.get("payload") or {}))
        sys.stdout.write(json.dumps(response, ensure_ascii=False) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
