"""Shared fixtures for the test suite, plus the lock-witness plugin.

Set ``REPRO_LOCK_WITNESS=1`` to record the lock-acquisition-order graph
across the whole run (see :mod:`repro.analysis.lockwitness`); the session
fails if the graph has a cycle or a SHARED->EXCLUSIVE upgrade. Tests that
provoke deadlocks on purpose carry ``@pytest.mark.lock_witness_exempt``.

Set ``REPRO_GUARD_SANITIZER=1`` to instrument every ``# guarded_by:``
annotated attribute of the concurrent core (see
:mod:`repro.analysis.guardsanitizer`); a test that touches one without
its guard held fails with the offending sites listed.
"""

import os

import pytest

from repro import faults
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.ndb import NDBConfig
from repro.util.clock import ManualClock

WITNESS_ENABLED = os.environ.get("REPRO_LOCK_WITNESS") == "1"
SANITIZER_ENABLED = os.environ.get("REPRO_GUARD_SANITIZER") == "1"


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "lock_witness_exempt: test provokes deadlocks/upgrades on purpose; "
        "the lock-order witness ignores it")
    if WITNESS_ENABLED:
        from repro.analysis.lockwitness import install_witness
        install_witness()
    if SANITIZER_ENABLED:
        from repro.analysis import guardsanitizer
        guardsanitizer.install(os.path.join(str(config.rootpath),
                                            "src", "repro"))


@pytest.fixture(autouse=True)
def _guard_sanitizer_gate():
    """Fail the test that produced new guard-sanitizer violations."""
    if not SANITIZER_ENABLED:
        yield
        return
    from repro.analysis import guardsanitizer
    before = len(guardsanitizer.VIOLATIONS)
    yield
    fresh = guardsanitizer.VIOLATIONS[before:]
    if fresh:
        pytest.fail(
            "guard sanitizer: unguarded access to annotated attributes:\n"
            + "\n".join("  " + v.render() for v in fresh),
            pytrace=False)


@pytest.fixture(autouse=True)
def _lock_witness_pause(request):
    """Pause witness recording inside deliberately-deadlocking tests."""
    if not WITNESS_ENABLED:
        yield
        return
    from repro.analysis.lockwitness import current_witness
    witness = current_witness()
    if witness is None or request.node.get_closest_marker(
            "lock_witness_exempt") is None:
        yield
        return
    with witness.paused():
        yield


def _flight_dump_dir(config) -> str:
    return os.environ.get(
        "REPRO_FLIGHT_DIR",
        os.path.join(str(config.rootpath), ".flight-dumps"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Dump every flight recorder when a test's call phase fails."""
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    try:
        from repro.metrics.flightrecorder import dump_all
        paths = dump_all(_flight_dump_dir(item.config),
                         reason=f"test_failure:{item.nodeid}")
        if paths:
            report.sections.append(
                ("flight recorder", "\n".join(paths)))
    except Exception:  # noqa: BLE001 - never break test reporting
        pass


def pytest_sessionfinish(session, exitstatus):
    if not WITNESS_ENABLED:
        return
    from repro.analysis.lockwitness import current_witness
    witness = current_witness()
    if witness is None:
        return
    report = witness.report()
    session.config._lock_witness_report = report
    if not report.ok:
        # export the acquisition graph (cycles highlighted) as a CI
        # artifact alongside the flight-recorder dumps
        try:
            artifact_dir = os.environ.get(
                "REPRO_WITNESS_DIR",
                os.path.join(str(session.config.rootpath), ".lock-witness"))
            session.config._lock_witness_artifacts = witness.dump(
                artifact_dir, report)
        except Exception:  # noqa: BLE001 - reporting must not break
            pass
        if session.exitstatus == 0:
            session.exitstatus = 1
            try:
                from repro.metrics.flightrecorder import dump_all
                dump_all(_flight_dump_dir(session.config),
                         reason="lock_witness_finding")
            except Exception:  # noqa: BLE001 - reporting must not break
                pass


def pytest_terminal_summary(terminalreporter):
    report = getattr(terminalreporter.config, "_lock_witness_report", None)
    if report is not None:
        terminalreporter.section("lock-order witness")
        terminalreporter.write_line(report.render())
        artifacts = getattr(terminalreporter.config,
                            "_lock_witness_artifacts", None)
        if artifacts:
            terminalreporter.write_line(
                "acquisition graph exported: " + ", ".join(artifacts))
    if SANITIZER_ENABLED:
        from repro.analysis import guardsanitizer
        terminalreporter.section("guard sanitizer")
        if guardsanitizer.VIOLATIONS:
            for violation in guardsanitizer.VIOLATIONS:
                terminalreporter.write_line(violation.render())
        else:
            terminalreporter.write_line(
                "no unguarded accesses to annotated attributes")


def make_hopsfs(num_namenodes=2, num_datanodes=3, clock=None,
                ndb_nodes=4, ndb_replication=2, network_delay=0.0,
                **config_overrides):
    """Build a small HopsFS cluster with fast lock timeouts for tests.
    A ``network_delay`` > 0 makes the engine's round trips wait, which
    puts the subtree protocol's units on worker threads."""
    config_kwargs = dict(subtree_batch_size=8, subtree_parallelism=2)
    config_kwargs.update(config_overrides)
    config = HopsFSConfig(clock=clock or ManualClock(), **config_kwargs)
    return HopsFSCluster(
        num_namenodes=num_namenodes, num_datanodes=num_datanodes,
        config=config,
        ndb_config=NDBConfig(num_datanodes=ndb_nodes,
                             replication=ndb_replication,
                             lock_timeout=1.0,
                             network_delay=network_delay))


def at_subtree_stage(nn, tag, hook):
    """While the returned context is open, call ``hook`` each time the
    namenode ``nn`` reaches the subtree-protocol stage ``tag``: a
    ``call`` fault spec on ``hopsfs.subtree.{tag}`` matched on ``nn``."""
    plan = faults.FaultPlan()
    plan.add(f"hopsfs.subtree.{tag}", action="call", callback="hook",
             match={"nn": nn.nn_id}, max_fires=None)
    return faults.installed(plan, callbacks={"hook": hook})


@pytest.fixture(params=["ndb", "memory", "process"])
def any_driver(request):
    """A 2-namenode, 3-datanode HopsFS cluster on each DAL driver: the
    embedded NDB engine, the memory driver, and ``RemoteDriver`` to an
    ndb-server."""
    config = HopsFSConfig(clock=ManualClock())
    ndb = NDBConfig(num_datanodes=4, replication=2, lock_timeout=2.0)
    if request.param == "ndb":
        yield HopsFSCluster(num_namenodes=2, num_datanodes=3, config=config,
                            ndb_config=ndb)
    elif request.param == "memory":
        from repro.dal import MemoryDriver

        yield HopsFSCluster(num_namenodes=2, num_datanodes=3, config=config,
                            driver=MemoryDriver())
    else:
        from repro.dal import RemoteDriver
        from repro.rpc import NDBServer

        with NDBServer(config=ndb) as server:
            driver = RemoteDriver(server.host, server.port, timeout=10.0)
            try:
                yield HopsFSCluster(num_namenodes=2, num_datanodes=3,
                                    driver=driver, config=config)
            finally:
                driver.close()


@pytest.fixture
def fs():
    """A 2-namenode, 3-datanode HopsFS cluster on a 4-node NDB."""
    return make_hopsfs()


@pytest.fixture
def client(fs):
    return fs.client("test-client")
