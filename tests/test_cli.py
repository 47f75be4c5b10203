"""Tests for the command-line interface."""

import json
import re

import pytest

from repro import KOSREngine
from repro.cli import build_parser, main
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

    def test_dij_backend(self, fig1_file, capsys):
        code = main([
            "query", "--graph", fig1_file,
            "--source", str(vertex("s")), "--target", str(vertex("t")),
            "--categories", "MA,RE,CI", "--k", "1",
            "--method", "PK", "--nn-backend", "dij-restart",
        ])
        assert code == 0
        assert "cost 20" in capsys.readouterr().out


class TestRepeatFlag:
    def test_repeat_reports_cold_vs_warm(self, fig1_file, capsys):
        code = main([
            "query", "--graph", fig1_file,
            "--source", str(vertex("s")), "--target", str(vertex("t")),
            "--categories", "MA,RE,CI", "--k", "2", "--repeat", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "repeat x4" in out and "warm mean" in out
        assert "session cache" in out

    def test_repeat_default_prints_nothing_extra(self, fig1_file, capsys):
        main([
            "query", "--graph", fig1_file,
            "--source", str(vertex("s")), "--target", str(vertex("t")),
            "--categories", "MA,RE,CI",
        ])
        assert "repeat" not in capsys.readouterr().out


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

    def test_batch_max_workers_flag_is_gone(self, fig1_file, tmp_path):
        """`async-batch` is the concurrent workload path."""
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
                     "--cache-stats", "--max-dest-kernels", "4",
                     "--max-finders", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "finder:" in out and "dest_kernel:" in out
        # three same-group SK requests: marked, admitted, read back
        assert "est_stream:" in out
        assert "hits (" in out and "evictions:" in out

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
        code = main(["async-batch", "--graph", fig1_file, "--workload", wl])
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
        code = main(["async-batch", "--graph", fig1_file, "--workload", wl,
                     "--json", "--max-inflight", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"][0]["costs"][0] == 20
        assert payload["queries"][2]["method"] == "PK"
        assert payload["serving_stats"]["executed"] == 2
        assert payload["serving_stats"]["coalesced"] == 1
        assert payload["unfinished"] == 0

    def test_async_batch_no_coalesce(self, fig1_file, tmp_path, capsys):
        s, t = vertex("s"), vertex("t")
        record = {"source": s, "target": t, "categories": [0], "k": 1}
        wl = self._workload(tmp_path, [record] * 3)
        code = main(["async-batch", "--graph", fig1_file, "--workload", wl,
                     "--json", "--no-coalesce"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["serving_stats"]["executed"] == 3

    def test_async_batch_rejects_unknown_method_before_running(
            self, fig1_file, tmp_path):
        wl = self._workload(tmp_path, [
            {"source": 0, "target": 1, "categories": [0], "method": "SKX"},
        ])
        with pytest.raises(SystemExit, match="unknown method"):
            main(["async-batch", "--graph", fig1_file, "--workload", wl])

    def test_async_batch_unfinished_exit_code(self, fig1_file, tmp_path,
                                              capsys):
        s, t = vertex("s"), vertex("t")
        wl = self._workload(tmp_path, [
            {"source": s, "target": t, "categories": [0, 1, 2], "k": 3,
             "method": "KPNE"},
        ])
        code = main(["async-batch", "--graph", fig1_file, "--workload", wl,
                     "--budget", "1"])
        assert code == 2

    def test_async_batch_overload_reports_instead_of_crashing(
            self, fig1_file, tmp_path, capsys):
        """--max-queue smaller than the workload sheds load gracefully."""
        s, t = vertex("s"), vertex("t")
        records = [{"source": s, "target": t, "categories": [c, (c + 1) % 3],
                    "k": 1} for c in range(3) for _ in range(2)]
        wl = self._workload(tmp_path, records)
        code = main(["async-batch", "--graph", fig1_file, "--workload", wl,
                     "--max-queue", "2", "--no-coalesce", "--json"])
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
        """`cli serve` answers one real TCP request, then is interrupted."""
        import asyncio

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
                raise KeyboardInterrupt

            server.serve_forever = one_exchange_then_interrupt
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
        ["async-batch", "--workload", "-"],
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
        ["async-batch", "--workload", "-"],
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
