"""Call-graph construction: resolution, fork sites, reachability."""

from repro.analyze.callgraph import CallGraph, Program


def program(**sources):
    """Assemble an in-memory program: ``name="source"`` per module."""
    return Program.from_sources(
        {f"app.{name}": (f"src/app/{name}.py", text) for name, text in sources.items()}
    )


def edge_pairs(graph):
    return {
        (e.caller, e.callee) for edges in graph.edges.values() for e in edges
    }


def test_direct_and_imported_calls_resolve():
    p = program(
        util="def helper(x):\n    return x\n",
        main=(
            "from .util import helper\n"
            "def run():\n"
            "    return helper(1)\n"
        ),
    )
    graph = CallGraph.build(p)
    assert ("app.main.run", "app.util.helper") in edge_pairs(graph)


def test_aliased_module_import_resolves():
    p = program(
        util="def helper(x):\n    return x\n",
        main=(
            "from app import util as u\n"
            "def run():\n"
            "    return u.helper(1)\n"
        ),
    )
    graph = CallGraph.build(p)
    assert ("app.main.run", "app.util.helper") in edge_pairs(graph)


def test_self_method_resolves_through_base_class():
    p = program(
        base="class Base:\n    def step(self):\n        return 1\n",
        main=(
            "from .base import Base\n"
            "class Child(Base):\n"
            "    def run(self):\n"
            "        return self.step()\n"
        ),
    )
    graph = CallGraph.build(p)
    assert ("app.main.Child.run", "app.base.Base.step") in edge_pairs(graph)


def test_external_module_attribute_is_not_by_name_matched():
    """``time.sleep`` must not resolve to an in-program ``sleep`` method."""
    p = program(
        kern="class Kernel:\n    def sleep(self, delay):\n        return delay\n",
        main=(
            "import time\n"
            "def wait():\n"
            "    time.sleep(0.1)\n"
        ),
    )
    graph = CallGraph.build(p)
    assert ("app.main.wait", "app.kern.Kernel.sleep") not in edge_pairs(graph)


def test_unknown_receiver_matches_methods_by_name():
    p = program(
        kern="class Kernel:\n    def advance(self, n):\n        return n\n",
        main="def run(k):\n    return k.advance(3)\n",
    )
    graph = CallGraph.build(p)
    [edge] = [
        e for e in graph.edges["app.main.run"] if e.callee.endswith("advance")
    ]
    assert edge.by_name


def test_fork_site_with_local_target_function():
    p = program(
        work=(
            "import multiprocessing\n"
            "def _worker(conn):\n"
            "    conn.send(1)\n"
            "def launch(ctx, conn):\n"
            "    p = ctx.Process(target=_worker, args=(conn,))\n"
            "    p.start()\n"
        ),
    )
    graph = CallGraph.build(p)
    [site] = graph.fork_sites
    assert site.target == "app.work._worker"
    assert site.caller == "app.work.launch"


def test_fanout_call_marks_its_first_argument_as_a_fork_target():
    p = program(
        work=(
            "from app.pool import pool_map\n"
            "def _cell(item):\n"
            "    return item\n"
            "def run(items):\n"
            "    return pool_map(_cell, items, 2)\n"
        ),
        pool=(
            "def pool_map(fn, items, jobs):\n"
            "    return [fn(item) for item in items]\n"
        ),
    )
    graph = CallGraph.build(p)
    [site] = graph.fork_sites
    assert site.target == "app.work._cell"
    assert site.caller == "app.work.run"


def test_reachability_descends_nested_defs_and_reports_chain():
    p = program(
        work=(
            "def leaf():\n"
            "    return 1\n"
            "def entry():\n"
            "    def inner():\n"
            "        return leaf()\n"
            "    return inner()\n"
        ),
    )
    graph = CallGraph.build(p)
    parents = graph.reachable_from(["app.work.entry"])
    assert "app.work.leaf" in parents
    chain = graph.chain(parents, "app.work.leaf")
    assert chain[0] == "app.work.entry" and chain[-1] == "app.work.leaf"


def test_real_tree_loads_and_finds_the_fork_boundaries():
    p = Program.load("src/repro")
    graph = CallGraph.build(p)
    targets = {s.target for s in graph.fork_sites}
    assert "repro.simkernel.pdes._worker_main" in targets
    assert "repro.supervise.executor._child_main" in targets
    assert "repro.bench.parallel.run_cell" in targets
