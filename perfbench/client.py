"""Closed-loop HTTP client for the ``service-replay`` workload.

Runs as its own process so that sending requests and reading replies
never competes with the server's event loop.  Opens ``--connections``
keep-alive connections to ``POST /synthesize``; each connection sends
its next upload only after the previous reply has been read in full.
Uploads are taken in the job file's schedule order.

Prints one JSON object: ``wall_s`` (first send to last reply), one
``[index, http_status, seconds, payload_text]`` record per completed
request, and the ``errors`` that stopped a connection early (the
parent counts every request without a record as failed).
"""

import argparse
import http.client
import json
import sys
import threading
import time


def drive(port, connections, corpus, schedule):
    cursor = iter(schedule)
    lock = threading.Lock()
    records = []
    errors = []
    conns = [
        http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        for _ in range(connections)
    ]
    for conn in conns:
        conn.connect()

    def loop(conn):
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                body = corpus[index].encode("utf-8")
                began = time.perf_counter()
                conn.request("POST", "/synthesize", body=body)
                reply = conn.getresponse()
                payload = reply.read()
                seconds = time.perf_counter() - began
                records.append(
                    [index, reply.status, seconds, payload.decode("utf-8")]
                )
        except (OSError, http.client.HTTPException) as exc:
            errors.append(repr(exc))

    threads = [threading.Thread(target=loop, args=(c,)) for c in conns]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    for conn in conns:
        conn.close()
    return wall, records, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--connections", type=int, required=True)
    parser.add_argument("--job", required=True,
                        help="JSON file with 'corpus' and 'schedule'")
    args = parser.parse_args(argv)
    with open(args.job, encoding="utf-8") as handle:
        job = json.load(handle)
    wall, records, errors = drive(
        args.port, args.connections, job["corpus"], job["schedule"]
    )
    json.dump({"wall_s": wall, "records": records, "errors": errors},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
