"""The two-daemon ``Router`` shared by the serve and stream workloads."""

from __future__ import annotations

import os
import shutil

from common import vm_hwm_mb

DAEMONS = 2
#: Longest unix socket path the kernel accepts, less a margin.
_SOCKET_PATH_MAX = 100


def _short_path(path):
    """*path*, or the same directory through ``/proc/self/cwd`` when a
    socket inside it would exceed the unix socket path limit.

    The router and its daemons share the working directory, so the
    ``/proc/self/cwd`` form names the same place in every process.
    """
    if len(os.path.join(path, "n0.sock")) <= _SOCKET_PATH_MAX:
        return path
    return os.path.join("/proc/self/cwd", os.path.relpath(path))


def call(router, msg):
    """One routed request → ``(response, None)`` or ``(None, error)``.

    Typed refusals, transport failures and in-band ``ok: false``
    answers all come back as an error string: they count as failed ops.
    """
    try:
        response = router.request(msg, check=False)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        return None, f"{type(exc).__name__}: {exc}"
    if not response.get("ok"):
        return None, f"{response.get('error')}: {response.get('message')}"
    return response, None


class RouterSystem:
    """Start/stop and process measurements of the daemon fleet."""

    daemons = DAEMONS

    def start_router(self, work_dir):
        from repro.serve.router import Router

        base = os.path.join(work_dir, "router")
        # A leftover journal would make Router.start spawn the daemons
        # with --recover: every set-up starts from an empty directory.
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        return Router(DAEMONS, _short_path(base), backend="serial").start()

    def teardown(self, router):
        router.stop()

    def peak_rss_mb(self, router):
        return sum(vm_hwm_mb(node["pid"]) for node in router.health()["nodes"])

    def health(self, router):
        nodes = router.health()["nodes"]
        return {"restarts": sum(node["restarts"] for node in nodes),
                "nodes": [node["address"] for node in nodes]}

    def traced_extras(self, router):
        return self.health(router)

    def router_layers(self, extras, totals):
        spans = totals.spans.get("serve.net.client", ())
        counts = {node: 0 for node in extras["nodes"]}
        for span in spans:
            counts[span[6]["node"]] = counts.get(span[6]["node"], 0) + 1
        mean = sum(counts.values()) / len(counts)
        return {
            "serve.router.restarts": extras["restarts"],
            "serve.router.node_skew": max(counts.values()) / mean if mean else 0.0,
        }
