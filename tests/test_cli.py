"""Tests for the command-line interface."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro import KOSREngine
from repro.cli import build_parser, main
from repro.core.engine import METHODS
from repro.graph.io import load_json, save_json
from repro.graph.paper import paper_figure1_graph, vertex


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    save_json(paper_figure1_graph(), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_method(self, fig1_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "query", "--graph", fig1_file, "--source", "0",
                "--target", "1", "--categories", "MA", "--method", "NOPE",
            ])


class TestGenerateInfo:
    def test_generate_then_info(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["generate", "--dataset", "CAL", "--scale", "0.05",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert main(["info", "--graph", str(out)]) == 0
        text = capsys.readouterr().out
        assert "vertices" in text and "categories" in text

    def test_info_on_fig1(self, fig1_file, capsys):
        assert main(["info", "--graph", fig1_file]) == 0
        out = capsys.readouterr().out
        assert "8" in out  # 8 vertices


class TestQuery:
    def test_fig1_query_matches_paper(self, fig1_file, capsys):
        code = main([
            "query", "--graph", fig1_file,
            "--source", str(vertex("s")), "--target", str(vertex("t")),
            "--categories", "MA,RE,CI", "--k", "3", "--method", "SK",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cost 20" in out and "cost 21" in out and "cost 22" in out

    def test_routes_flag(self, fig1_file, capsys):
        main([
            "query", "--graph", fig1_file,
            "--source", str(vertex("s")), "--target", str(vertex("t")),
            "--categories", "MA,RE,CI", "--k", "1", "--routes",
        ])
        assert "route" in capsys.readouterr().out

    def test_budget_inf_exit_code(self, fig1_file, capsys):
        code = main([
            "query", "--graph", fig1_file,
            "--source", str(vertex("s")), "--target", str(vertex("t")),
            "--categories", "MA,RE,CI", "--k", "3", "--method", "KPNE",
            "--budget", "1",
        ])
        assert code == 2
        assert "INF" in capsys.readouterr().out

    def test_numeric_category_ids(self, fig1_file, capsys):
        code = main([
            "query", "--graph", fig1_file,
            "--source", str(vertex("s")), "--target", str(vertex("t")),
            "--categories", "0,1,2", "--k", "1",
        ])
        assert code == 0
        assert "cost 20" in capsys.readouterr().out

    @pytest.mark.parametrize("token", ["\u00b2", "\u0662"])
    def test_non_ascii_digits_are_names(self, fig1_file, token):
        """``'²'`` used to reach ``int()`` and die with its ValueError,
        and ``'٢'`` (Arabic-Indic two) answered for category id 2: both
        pass ``str.isdigit()``.  Neither is an id, and neither names a
        category."""
        from repro.exceptions import UnknownCategoryError

        with pytest.raises(UnknownCategoryError, match=repr(token)):
            main([
                "query", "--graph", fig1_file,
                "--source", str(vertex("s")), "--target", str(vertex("t")),
                "--categories", f"0,1,{token}", "--k", "1",
            ])

    def test_dij_backend(self, fig1_file, capsys):
        code = main([
            "query", "--graph", fig1_file,
            "--source", str(vertex("s")), "--target", str(vertex("t")),
            "--categories", "MA,RE,CI", "--k", "1",
            "--method", "PK", "--nn-backend", "dij-restart",
        ])
        assert code == 0
        assert "cost 20" in capsys.readouterr().out


class TestBatchCommand:
    def _workload(self, tmp_path, records):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(records))
        return str(path)

    def test_batch_groups_and_answers(self, fig1_file, tmp_path, capsys):
        s, t = vertex("s"), vertex("t")
        wl = self._workload(tmp_path, [
            {"source": s, "target": t, "categories": ["MA", "RE", "CI"], "k": 3},
            {"source": s, "target": t, "categories": ["MA", "RE", "CI"], "k": 3},
            {"source": s, "target": t, "categories": ["MA"], "k": 1,
             "method": "PK"},
        ])
        code = main(["batch", "--graph", fig1_file, "--workload", wl])
        assert code == 0
        out = capsys.readouterr().out
        assert "best 20" in out        # the paper's optimal cost
        assert "[PK]" in out
        assert "batch: 3 queries" in out

    def test_batch_json_output(self, fig1_file, tmp_path, capsys):
        s, t = vertex("s"), vertex("t")
        wl = self._workload(tmp_path, [
            {"source": s, "target": t, "categories": [0, 1, 2], "k": 2},
        ])
        code = main(["batch", "--graph", fig1_file, "--workload", wl,
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_groups"] == 1
        assert payload["unfinished"] == 0
        assert payload["queries"][0]["costs"][0] == 20
        assert "cache_stats" in payload

    def test_batch_unfinished_exit_code(self, fig1_file, tmp_path, capsys):
        s, t = vertex("s"), vertex("t")
        wl = self._workload(tmp_path, [
            {"source": s, "target": t, "categories": [0, 1, 2], "k": 3,
             "method": "KPNE"},
        ])
        code = main(["batch", "--graph", fig1_file, "--workload", wl,
                     "--budget", "1"])
        assert code == 2
        assert "1 unfinished" in capsys.readouterr().out

    @pytest.mark.parametrize("token", ["\u00b2", "\u0662"])
    def test_batch_non_ascii_digits_are_names(self, fig1_file, tmp_path,
                                               token):
        """The workload parser reads ``"2"`` as an id and ``"٢"`` as a
        (here unknown) name, as ``query --categories`` does."""
        from repro.exceptions import UnknownCategoryError

        s, t = vertex("s"), vertex("t")
        ok = self._workload(tmp_path, [
            {"source": s, "target": t, "categories": ["0", "1", "2"]}])
        assert main(["batch", "--graph", fig1_file, "--workload", ok]) == 0
        wl = self._workload(tmp_path, [
            {"source": s, "target": t, "categories": ["0", "1", token]}])
        with pytest.raises(UnknownCategoryError, match=repr(token)):
            main(["batch", "--graph", fig1_file, "--workload", wl])

    def test_batch_sk_db_requires_index(self, fig1_file, tmp_path):
        wl = self._workload(tmp_path, [
            {"source": 0, "target": 1, "categories": [0], "method": "SK-DB"},
        ])
        with pytest.raises(SystemExit, match="--mmap-index"):
            main(["batch", "--graph", fig1_file, "--workload", wl])

    def test_batch_rejects_unknown_record_method_before_running(
            self, fig1_file, tmp_path, capsys):
        wl = self._workload(tmp_path, [
            {"source": 0, "target": 1, "categories": [0]},
            {"source": 0, "target": 1, "categories": [0], "method": "SKX"},
        ])
        with pytest.raises(SystemExit, match="unknown method"):
            main(["batch", "--graph", fig1_file, "--workload", wl])
        assert "best" not in capsys.readouterr().out  # nothing executed

    @pytest.mark.parametrize("bad", [{"categories": ["no-such-category"]},
                                     {"source": 10_000}])
    def test_sharded_batch_with_a_bad_record_leaves_no_fleet(
            self, fig1_file, tmp_path, bad):
        """A record the graph rejects fails the call before any worker is
        spawned, so a caller that catches and retries cannot pile up
        resident fleets."""
        import multiprocessing

        from repro.exceptions import ReproError

        s, t = vertex("s"), vertex("t")
        wl = self._workload(tmp_path, [
            {"source": s, "target": t, "categories": ["MA"]},
            {"source": s, "target": t, "categories": ["MA"], **bad},
        ])
        with pytest.raises(ReproError):
            main(["batch", "--graph", fig1_file, "--workload", wl,
                  "--shards", "1"])
        assert not [child.name for child in multiprocessing.active_children()
                    if child.name.startswith("repro-shard-")]

    def test_batch_max_workers_flag_is_gone(self, fig1_file, tmp_path):
        """`batch --async` is the concurrent workload path."""
        wl = self._workload(tmp_path, [
            {"source": vertex("s"), "target": vertex("t"),
             "categories": [0, 1], "k": 2},
        ])
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", "--graph", fig1_file, "--workload", wl,
                  "--max-workers", "2"])
        assert exit_info.value.code == 2

    def test_batch_cache_stats_report(self, fig1_file, tmp_path, capsys):
        s, t = vertex("s"), vertex("t")
        wl = self._workload(tmp_path, [
            {"source": s, "target": t, "categories": [0, 1], "k": 2},
            {"source": s, "target": t, "categories": [0, 1], "k": 2},
            {"source": s, "target": t, "categories": [0, 1], "k": 2},
        ])
        code = main(["batch", "--graph", fig1_file, "--workload", wl,
                     "--max-dest-kernels", "4",
                     "--max-finders", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "finder:" in out and "dest_kernel:" in out
        # three same-group SK requests: marked, admitted, read back
        assert "est_stream:" in out
        assert "hits (" in out and "evictions:" in out

    def test_repeated_record_shows_cold_then_warm(self, fig1_file, tmp_path,
                                                  capsys):
        """One record N times: a cold first row, N - 1 warm ones with the
        same answer and counters, and the hits in the cache report."""
        record = {"source": vertex("s"), "target": vertex("t"),
                  "categories": ["MA", "RE", "CI"], "k": 2}
        wl = self._workload(tmp_path, [record] * 4)
        assert main(["batch", "--graph", fig1_file, "--workload", wl,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["queries"]
        assert all((row["costs"], row["nn_queries"], row["examined_routes"])
                   == (rows[0]["costs"], rows[0]["nn_queries"],
                       rows[0]["examined_routes"]) for row in rows)
        cache = payload["cache_stats"]
        assert (cache["finder_misses"], cache["finder_hits"]) == (1, 3)
        assert (cache["dest_kernel_misses"], cache["dest_kernel_hits"]) \
            == (1, 3)

    def test_batch_json_includes_eviction_counters(self, fig1_file,
                                                   tmp_path, capsys):
        s, t = vertex("s"), vertex("t")
        wl = self._workload(tmp_path, [
            {"source": s, "target": t, "categories": [0, 1], "k": 2},
        ])
        code = main(["batch", "--graph", fig1_file, "--workload", wl,
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "dest_kernel_evictions" in payload["cache_stats"]
        assert "cursor_evictions" in payload["cache_stats"]


class TestAsyncBatchCommand:
    """`batch --async`: the same workload through the asyncio front door."""

    def _workload(self, tmp_path, records):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(records))
        return str(path)

    def test_async_batch_coalesces_duplicates(self, fig1_file, tmp_path,
                                              capsys):
        s, t = vertex("s"), vertex("t")
        record = {"source": s, "target": t,
                  "categories": ["MA", "RE", "CI"], "k": 3}
        wl = self._workload(tmp_path, [record] * 4)
        code = main(["batch", "--async", "--graph", fig1_file,
                     "--workload", wl])
        assert code == 0
        out = capsys.readouterr().out
        assert "best 20" in out
        assert "1 executed" in out and "3 coalesced" in out

    def test_async_batch_json_output(self, fig1_file, tmp_path, capsys):
        s, t = vertex("s"), vertex("t")
        wl = self._workload(tmp_path, [
            {"source": s, "target": t, "categories": [0, 1, 2], "k": 2},
            {"source": s, "target": t, "categories": [0, 1, 2], "k": 2},
            {"source": s, "target": t, "categories": [0], "k": 1,
             "method": "PK"},
        ])
        code = main(["batch", "--async", "--graph", fig1_file,
                     "--workload", wl, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"][0]["costs"][0] == 20
        assert payload["queries"][2]["method"] == "PK"
        assert payload["serving_stats"]["executed"] == 2
        assert payload["serving_stats"]["coalesced"] == 1
        assert payload["unfinished"] == 0
        # the session's counters ride along with the serving ones: both
        # groups run over the one warm session, so one finder build serves
        # them both
        cache = payload["cache_stats"]
        assert (cache["finder_misses"], cache["finder_hits"]) == (1, 1)

    def test_front_door_bounds_need_async(self, fig1_file, tmp_path):
        wl = self._workload(tmp_path, [
            {"source": 0, "target": 1, "categories": [0]},
        ])
        with pytest.raises(SystemExit, match="pass --async"):
            main(["batch", "--graph", fig1_file, "--workload", wl,
                  "--max-queue", "2"])

    def test_async_batch_rejects_unknown_method_before_running(
            self, fig1_file, tmp_path):
        wl = self._workload(tmp_path, [
            {"source": 0, "target": 1, "categories": [0], "method": "SKX"},
        ])
        with pytest.raises(SystemExit, match="unknown method"):
            main(["batch", "--async", "--graph", fig1_file,
                  "--workload", wl])

    def test_async_batch_unfinished_exit_code(self, fig1_file, tmp_path,
                                              capsys):
        s, t = vertex("s"), vertex("t")
        wl = self._workload(tmp_path, [
            {"source": s, "target": t, "categories": [0, 1, 2], "k": 3,
             "method": "KPNE"},
        ])
        code = main(["batch", "--async", "--graph", fig1_file,
                     "--workload", wl, "--budget", "1"])
        assert code == 2

    def test_async_batch_overload_reports_instead_of_crashing(
            self, fig1_file, tmp_path, capsys):
        """--max-queue smaller than the workload sheds load gracefully."""
        s, t = vertex("s"), vertex("t")
        records = [{"source": s, "target": t, "categories": [c, (c + 1) % 3],
                    "k": 1} for c in range(3) for _ in range(2)]
        wl = self._workload(tmp_path, records)
        code = main(["batch", "--async", "--graph", fig1_file,
                     "--workload", wl, "--max-queue", "2", "--json"])
        assert code == 2  # shed requests count as unfinished
        payload = json.loads(capsys.readouterr().out)
        shed = [r for r in payload["queries"] if "error" in r]
        assert shed and all(r["kind"] == "ServiceOverloadedError"
                            for r in shed)
        assert payload["serving_stats"]["rejected"] == len(shed)
        answered = [r for r in payload["queries"] if "error" not in r]
        assert answered and all(r["completed"] for r in answered)


class TestServeCommand:
    @pytest.fixture
    def one_exchange(self, monkeypatch):
        """`cli serve` answers one real TCP request, then gets SIGTERM."""
        import asyncio
        import os
        import signal

        import repro.server.tcp as tcp_mod

        real_serve = tcp_mod.serve
        s, t = vertex("s"), vertex("t")
        exchanged = {}

        async def wrapped(engine, host, port, **kwargs):
            server = await real_serve(engine, host, 0, **kwargs)

            async def one_exchange_then_interrupt():
                addr = server.sockets[0].getsockname()
                reader, writer = await asyncio.open_connection(*addr[:2])
                writer.write(json.dumps(
                    {"id": "cli", "source": s, "target": t,
                     "categories": ["MA", "RE", "CI"], "k": 2}
                ).encode() + b"\n")
                await writer.drain()
                exchanged["response"] = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                os.kill(os.getpid(), signal.SIGTERM)

            exchanged["task"] = asyncio.get_running_loop().create_task(
                one_exchange_then_interrupt())
            return server

        monkeypatch.setattr(tcp_mod, "serve", wrapped)
        return exchanged

    def test_serve_answers_then_shuts_down(self, fig1_file, capsys,
                                           one_exchange):
        """End-to-end `cli serve`: real TCP exchange, then interrupt."""
        code = main(["serve", "--graph", fig1_file, "--port", "0"])
        assert code == 0
        out = capsys.readouterr().out
        # The banner is the first line (benchmarks/kosr/deploy.py waits
        # for it) and says what the start-up built.
        banner = out.splitlines()[0]
        assert re.match(r"serving KOSR queries on 127\.0\.0\.1:\d+ \(", banner)
        built = re.search(r"mmap=off, index=built (\d+\.\d\d)s/(\d+) entries,",
                          banner)
        assert built, banner
        assert int(built.group(2)) == \
            KOSREngine.build(load_json(fig1_file)).labels.size_entries()
        assert "interrupted" in out
        assert one_exchange["response"]["id"] == "cli"
        assert one_exchange["response"]["costs"][0] == 20

    def test_banner_names_an_attached_or_absent_index(
            self, fig1_file, tmp_path, capsys, one_exchange):
        index = tmp_path / "fig1.rpli"
        assert main(["index", "build", "--graph", fig1_file,
                     "--out", str(index)]) == 0
        capsys.readouterr()
        assert main(["serve", "--graph", fig1_file, "--port", "0",
                     "--mmap-index", str(index)]) == 0
        assert "mmap=on, index=mmap," in capsys.readouterr().out.splitlines()[0]
        assert one_exchange["response"]["costs"][0] == 20
        assert main(["serve", "--graph", fig1_file, "--port", "0",
                     "--method", "GSP"]) == 0
        assert "index=none," in capsys.readouterr().out.splitlines()[0]

    def test_sharded_gsp_server_builds_no_labels(self, fig1_file, capsys,
                                                 one_exchange):
        """A GSP fleet is topology-only, like the unsharded GSP server."""
        assert main(["serve", "--graph", fig1_file, "--port", "0",
                     "--method", "GSP", "--shards", "2"]) == 0
        banner = capsys.readouterr().out.splitlines()[0]
        assert "(shards=2, mmap=off, index=none," in banner

    def test_sigterm_with_a_connection_open_exits_cleanly(self, fig1_file,
                                                          tmp_path):
        """A real `cli serve` process gets SIGTERM while a client still
        holds its connection open: the handler waiting in ``readline``
        ends instead of being cancelled, so the server exits 0 and logs
        no traceback."""
        import os
        import signal
        import socket
        import subprocess
        import sys

        import repro

        index = tmp_path / "fig1.rpli"
        assert main(["index", "build", "--graph", fig1_file,
                     "--out", str(index)]) == 0
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ,
               "PYTHONPATH": src + os.pathsep
               + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--graph",
             fig1_file, "--mmap-index", str(index), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            banner = proc.stdout.readline()
            host, port = re.search(r" on ([\d.]+):(\d+) ", banner).groups()
            with socket.create_connection((host, int(port)),
                                          timeout=30) as conn:
                conn.sendall(json.dumps(
                    {"source": vertex("s"), "target": vertex("t"),
                     "categories": ["MA", "RE", "CI"], "k": 2}
                ).encode() + b"\n")
                reply = json.loads(conn.makefile().readline())
                assert reply["costs"][0] == 20
                proc.send_signal(signal.SIGTERM)
                out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "interrupted, shutting down" in out
        assert "Traceback" not in err, err

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads minor faults from /proc")
    def test_light_requests_fault_no_pages_in_any_allocator_mode(
            self, fig1_file, tmp_path):
        """The front door reads into one reused buffer, not a fresh
        256 KiB ``bytes`` per socket read: with glibc's ``mmap``
        threshold pinned below that size (which forces every such
        allocation into a fresh ``mmap``), light requests still cost the
        server under 1.5 minor page faults each."""
        import os
        import socket
        import subprocess
        import sys

        import repro

        def minflt(pid):
            with open(f"/proc/{pid}/stat") as f:
                # Fields after the parenthesised command name; minflt is
                # field 10 of the whole line.
                return int(f.read().rsplit(")", 1)[1].split()[7])

        index = tmp_path / "fig1.rpli"
        assert main(["index", "build", "--graph", fig1_file,
                     "--out", str(index)]) == 0
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072",
               "PYTHONPATH": src + os.pathsep
               + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--graph",
             fig1_file, "--mmap-index", str(index), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        request = json.dumps(
            {"source": vertex("s"), "target": vertex("t"),
             "categories": ["MA"], "k": 1}).encode() + b"\n"
        try:
            banner = proc.stdout.readline()
            host, port = re.search(r" on ([\d.]+):(\d+) ", banner).groups()
            with socket.create_connection((host, int(port)),
                                          timeout=30) as conn:
                replies = conn.makefile("rb")

                def exchange(n):
                    for _ in range(n):
                        conn.sendall(request)
                        assert json.loads(replies.readline())["costs"]

                exchange(50)  # warm: session, caches, first-use pages
                before = minflt(proc.pid)
                exchange(500)
                faults = minflt(proc.pid) - before
        finally:
            proc.terminate()
            proc.communicate(timeout=30)
        assert faults / 500 < 1.5, faults

    def test_serve_port_in_use_fails_with_actionable_message(
            self, fig1_file, capsys):
        """A bound port yields exit code 1 + a hint, not a traceback."""
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            code = main(["serve", "--graph", fig1_file,
                         "--port", str(port)])
        finally:
            blocker.close()
        assert code == 1
        err = capsys.readouterr().err
        assert f"cannot listen on 127.0.0.1:{port}" in err
        assert "already in use" in err and "--port" in err


class TestMetricsCommand:
    def test_stats_probe_prints_sections_and_epochs(self, capsys):
        """`cli metrics --stats` against a live server, end to end."""
        import asyncio
        import threading

        from repro import KOSREngine
        from repro.graph.paper import paper_figure1_graph
        from repro.server.tcp import serve

        engine = KOSREngine.build(paper_figure1_graph())
        ready = threading.Event()
        done = threading.Event()
        info = {}

        def runner():
            async def scenario():
                server = await serve(engine, "127.0.0.1", 0)
                info["port"] = server.sockets[0].getsockname()[1]
                ready.set()
                while not done.is_set():
                    await asyncio.sleep(0.02)
                server.close()
                await server.wait_closed()
                await server.query_service.close()

            asyncio.run(scenario())

        thread = threading.Thread(target=runner)
        thread.start()
        try:
            assert ready.wait(10)
            code = main(["metrics", "--port", str(info["port"]),
                         "--stats"])
        finally:
            done.set()
            thread.join(10)
        assert code == 0
        out = capsys.readouterr().out
        assert "serving.executed" in out
        assert "hit_rate.finder" in out
        assert "index_epoch  0 (base 0)" in out
        assert "versions=[" in out

    @pytest.mark.parametrize("reply", [b"", b"[1, 2]\n", b'"ok"\n',
                                       b"not json\n"])
    def test_unexpected_reply_is_an_error_not_a_traceback(self, capsys,
                                                          reply):
        """A server that closes without replying, or replies with
        something other than a JSON object: exit 1 with a message."""
        import socket
        import threading

        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def answer_once():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(reply)

        thread = threading.Thread(target=answer_once)
        thread.start()
        try:
            code = main(["metrics", "--port", str(port)])
        finally:
            thread.join(10)
            listener.close()
        assert code == 1
        assert "error: unexpected reply" in capsys.readouterr().err


class TestOpenBackend:
    @pytest.mark.parametrize("method", METHODS)
    def test_labels_exactly_when_the_row_needs_a_finder(
            self, fig1_file, tmp_path, method):
        """``--nn-backend label`` builds (or, for SK-DB, attaches) the
        labels exactly for the methods whose table row needs a finder;
        SK-DB still refuses to start without the index file it reads."""
        from repro.cli import _open_backend
        from repro.service import METHOD_TABLE

        row = METHOD_TABLE[method]
        argv = ["query", "--graph", fig1_file, "--method", method,
                "--nn-backend", "label", "--source", "0", "--target", "1",
                "--categories", "0"]
        if row.index_file:
            with pytest.raises(SystemExit, match="--mmap-index"):
                _open_backend(build_parser().parse_args(argv), {method})
            index = str(tmp_path / "fig1.rpli")
            main(["index", "build", "--graph", fig1_file, "--out", index])
            argv += ["--mmap-index", index]
        engine = _open_backend(build_parser().parse_args(argv), {method})
        assert (engine.labels is not None) == row.needs_finder


class TestSkDbOverIndexFile:
    """``index build`` writes the one persisted index; SK-DB reads it."""

    def test_sk_db_from_index_file(self, fig1_file, tmp_path, capsys):
        out = tmp_path / "fig1.rpli"
        main(["index", "build", "--graph", fig1_file, "--out", str(out)])
        capsys.readouterr()
        code = main([
            "query", "--graph", fig1_file, "--mmap-index", str(out),
            "--source", str(vertex("s")), "--target", str(vertex("t")),
            "--categories", "MA,RE,CI", "--k", "2", "--method", "SK-DB",
        ])
        assert code == 0
        assert "cost 20" in capsys.readouterr().out

    def test_sharded_batch_sk_db_from_index_file(self, fig1_file, tmp_path,
                                                 capsys):
        out = tmp_path / "fig1.rpli"
        main(["index", "build", "--graph", fig1_file, "--out", str(out)])
        wl = tmp_path / "wl.json"
        wl.write_text(json.dumps([
            {"source": vertex("s"), "target": vertex("t"),
             "categories": ["MA", "RE", "CI"], "k": 2, "method": "SK-DB"},
        ]))
        capsys.readouterr()
        code = main(["batch", "--graph", fig1_file,
                     "--mmap-index", str(out), "--workload", str(wl),
                     "--shards", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"][0]["costs"][0] == pytest.approx(20.0)

    def test_sk_db_without_index_rejected(self, fig1_file):
        with pytest.raises(SystemExit, match="--mmap-index"):
            main([
                "query", "--graph", fig1_file,
                "--source", "0", "--target", "1",
                "--categories", "MA", "--method", "SK-DB",
            ])

    def test_serve_sk_db_without_index_rejected(self, fig1_file):
        with pytest.raises(SystemExit, match="--mmap-index"):
            main(["serve", "--graph", fig1_file, "--port", "0",
                  "--method", "SK-DB", "--shards", "2"])

    def test_preprocess_subcommand_is_gone(self, fig1_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["preprocess", "--graph", fig1_file,
                  "--out", str(tmp_path / "index")])
        assert excinfo.value.code == 2
        assert "invalid choice: 'preprocess'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["query", "--source", "0", "--target", "1", "--categories", "MA"],
        ["batch", "--workload", "-"],
        ["serve", "--port", "0"],
    ], ids=lambda c: c[0])
    def test_index_dir_flag_is_an_unknown_argument(self, fig1_file, tmp_path,
                                                   command, capsys):
        """One persisted index, one way to reuse it: ``--mmap-index``."""
        with pytest.raises(SystemExit) as excinfo:
            main([command[0], "--graph", fig1_file, *command[1:],
                  "--index", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --index" in capsys.readouterr().err


class TestIndexBuildAndMmapQuery:
    def test_index_build_writes_single_file(self, fig1_file, tmp_path,
                                            capsys):
        out = tmp_path / "fig1.rpli"
        assert main(["index", "build", "--graph", fig1_file,
                     "--out", str(out)]) == 0
        assert out.exists()
        assert "inverted categories" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flags", [
        (["index", "build"], ["--out", "fig1.rpli"]),
        (["query"], ["--source", str(vertex("s")), "--target",
                     str(vertex("t")), "--categories", "MA,RE,CI"]),
    ], ids=["index-build", "query"])
    def test_closed_stdout_exits_nonzero_without_a_traceback(
            self, fig1_file, tmp_path, command, flags):
        """``... | head -1``: the reader is gone before the command
        prints.  It exits 1 with nothing on stderr, instead of printing a
        ``BrokenPipeError`` traceback (buffered or not: the error may
        surface at a ``print`` or at the final flush)."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ,
               "PYTHONPATH": src + os.pathsep
               + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *command,
             "--graph", fig1_file, *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
            env=env)
        proc.stdout.close()  # before the child's first write
        try:
            err = proc.communicate(timeout=30)[1].decode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 1, err
        assert err == ""

    def test_query_with_mmap_index(self, fig1_file, tmp_path, capsys):
        out = tmp_path / "fig1.rpli"
        main(["index", "build", "--graph", fig1_file, "--out", str(out)])
        capsys.readouterr()
        code = main([
            "query", "--graph", fig1_file, "--mmap-index", str(out),
            "--source", str(vertex("s")), "--target", str(vertex("t")),
            "--categories", "MA,RE,CI", "--k", "3",
        ])
        assert code == 0
        assert "cost 20" in capsys.readouterr().out

    def test_labels_only_index_rebuilds_inverted(self, fig1_file, tmp_path,
                                                 capsys):
        out = tmp_path / "labels.rpli"
        main(["index", "build", "--graph", fig1_file, "--out", str(out),
              "--no-inverted"])
        capsys.readouterr()
        code = main([
            "query", "--graph", fig1_file, "--mmap-index", str(out),
            "--source", str(vertex("s")), "--target", str(vertex("t")),
            "--categories", "MA,RE,CI", "--k", "3",
        ])
        assert code == 0
        assert "cost 20" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["query", "--source", "0", "--target", "1", "--categories", "MA"],
        ["batch", "--workload", "-"],
        ["serve", "--port", "0"],
    ], ids=lambda c: c[0])
    def test_backend_flag_is_an_unknown_argument(self, fig1_file, command,
                                                 capsys):
        """There is one index representation: no subcommand takes
        ``--backend`` any more (argparse's ordinary error, exit 2)."""
        with pytest.raises(SystemExit) as excinfo:
            main([command[0], "--graph", fig1_file, *command[1:],
                  "--backend", "packed"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["async-batch", "--workload", "-"],
        ["query", "--source", "0", "--target", "1", "--categories", "MA",
         "--repeat", "2"],
        ["query", "--source", "0", "--target", "1", "--categories", "MA",
         "--overlay-ratio", "0.5"],
        ["batch", "--workload", "-", "--overlay-ratio", "0.5"],
        ["serve", "--port", "0", "--overlay-ratio", "0.5"],
        ["batch", "--workload", "-", "--no-coalesce"],
        ["batch", "--workload", "-", "--cache-stats"],
        ["batch", "--workload", "-", "--max-groups", "4"],
        ["serve", "--port", "0", "--max-groups", "512"],
        ["batch", "--workload", "-", "--async", "--max-inflight", "8"],
        ["serve", "--port", "0", "--max-inflight", "4"],
    ], ids=["async-batch", "query--repeat", "query--overlay-ratio",
            "batch--overlay-ratio", "serve--overlay-ratio",
            "batch--no-coalesce", "batch--cache-stats", "batch--max-groups",
            "serve--max-groups", "batch--max-inflight",
            "serve--max-inflight"])
    def test_removed_surface_is_an_argparse_error(self, fig1_file, argv,
                                                  capsys):
        """One workload command and no knob with a single value in use:
        the retired subcommand and flags are argparse errors (exit 2)."""
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], "--graph", fig1_file, *argv[1:]])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err

    def test_sharded_batch_with_mmap_index(self, fig1_file, tmp_path,
                                           capsys):
        out = tmp_path / "fig1.rpli"
        main(["index", "build", "--graph", fig1_file, "--out", str(out)])
        wl = tmp_path / "wl.json"
        wl.write_text(json.dumps([
            {"source": vertex("s"), "target": vertex("t"),
             "categories": ["MA", "RE", "CI"], "k": 2},
        ]))
        capsys.readouterr()
        code = main(["batch", "--graph", fig1_file,
                     "--mmap-index", str(out), "--workload", str(wl),
                     "--shards", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"][0]["costs"][0] == pytest.approx(20.0)


class TestDocsCliLines:
    """tools/check_docs.py parses every documented ``repro.cli`` line and
    holds the metric catalogue and the pipe-protocol table to the code."""

    @pytest.fixture(scope="class")
    def check_docs(self):
        path = Path(__file__).resolve().parents[1] / "tools" / "check_docs.py"
        spec = importlib.util.spec_from_file_location("check_docs", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_removed_subcommand_fails_and_batch_async_passes(
            self, check_docs, tmp_path):
        stale = tmp_path / "stale.md"
        stale.write_text(
            "```bash\n"
            "PYTHONPATH=<repo>/src python -m repro.cli async-batch \\\n"
            "    --graph g.json --workload wl.json --json\n"
            "```\n")
        [(lineno, finding)] = check_docs.check_file(stale)
        assert lineno == 2 and "invalid choice: 'async-batch'" in finding
        fresh = tmp_path / "fresh.md"
        fresh.write_text(
            "Run `python -m repro.cli batch --async --graph <graph> "
            "--workload - --max-queue 8` | tail -1 to see the summary.\n")
        assert check_docs.check_file(fresh) == []

    def test_metric_catalogue_matches_the_code(self, check_docs, tmp_path,
                                               monkeypatch):
        assert check_docs.check_catalogue() == []
        text = check_docs.CATALOGUE.read_text()
        row = next(line for line in text.splitlines()
                   if line.startswith("| `repro_tcp_errors_total`"))
        stale = tmp_path / "observability.md"
        stale.write_text(text.replace(row, (
            "| `repro_shard_fanout_total` | counter | — | sub-requests |\n"
            "| `repro_cache_anything_total` | counter | — | a family |")))
        monkeypatch.setattr(check_docs, "CATALOGUE", stale)
        findings = sorted(what for _, _, what in check_docs.check_catalogue())
        assert len(findings) == 2
        assert findings[0].startswith("catalogue row names "
                                      "repro_shard_fanout_total")
        assert findings[1] == ("metric repro_tcp_errors_total has no "
                               "catalogue row")

    def test_protocol_table_matches_the_handlers(self, check_docs, tmp_path,
                                                 monkeypatch):
        assert check_docs.check_protocol() == []
        text = check_docs.PROTOCOL.read_text()
        row = next(line for line in text.splitlines()
                   if line.startswith("| `compact` |"))
        stale = tmp_path / "architecture.md"
        stale.write_text(text.replace(row, (
            "| `commit_edge` | `fence` | index epoch |")))
        monkeypatch.setattr(check_docs, "PROTOCOL", stale)
        findings = sorted(what for _, _, what in check_docs.check_protocol())
        assert findings == [
            "message kind compact has no row in the pipe-protocol table",
            "pipe-protocol row names commit_edge, which worker.HANDLERS "
            "does not answer"]


TINY_FIGURE = ["--scale", "0.05", "--queries", "1"]


class TestFigureCommand:
    def test_small_figure(self, capsys):
        from repro.experiments import datasets as ds

        before = ds.BENCH_SCALE, ds.BENCH_QUERIES
        assert main(["figure", "--name", "table10", *TINY_FIGURE]) == 0
        assert "nn_query_ms" in capsys.readouterr().out
        assert (ds.BENCH_SCALE, ds.BENCH_QUERIES) == before  # passed, not assigned

    def test_all_prints_one_verdict_line_per_check(self, capsys, monkeypatch):
        import dataclasses
        import re

        from repro.experiments import figures

        # `scaling` sweeps absolute dataset scales; keep those tiny too
        monkeypatch.setitem(figures.FIGURES, "scaling", dataclasses.replace(
            figures.FIGURES["scaling"], sweep=("V", (0.05, 0.1))))
        assert main(["figure", "--name", "all", *TINY_FIGURE]) == 0
        out = capsys.readouterr().out
        assert "--name all --scale 0.05 --queries 1" in out
        for name, fig in figures.FIGURES.items():
            verdict = rf"^- {name}( \[timing\])?: .* — (holds|DIFFERS)$"
            assert len(re.findall(verdict, out, re.M)) == len(fig.expect), name


class TestChartFlag:
    def test_figure_with_chart(self, capsys):
        assert main(["figure", "--name", "fig5", "--chart", *TINY_FIGURE]) == 0
        assert "peak" in capsys.readouterr().out  # sparkline footer
