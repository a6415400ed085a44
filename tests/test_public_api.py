"""The curated public API surface: importability and README contract."""

import dataclasses
import importlib
import pkgutil
import random

import pytest

import repro
from repro.analysis import (
    ConsensusOutcome,
    FDRecord,
    PropertyCheck,
    QoSReport,
)
from repro.cluster import STACKS, TRANSPORTS
from repro.lint import all_rules
from repro.net import (
    FaultPlan,
    LoopbackHub,
    LoopbackTransport,
    NodeHost,
    RuntimeNetwork,
    RuntimeWorld,
    VirtualClock,
)
from repro.obs import EventSchema, MemorySink, MetricSchema, Trace
from repro.proc import build_node
from repro.sim import (
    Network,
    NetworkAPI,
    Periodic,
    ProcessAPI,
    SchedulerAPI,
    World,
    WorldAPI,
    stream_for,
)
from repro.workloads import ConsensusRun


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        # Every module's ``__all__`` is a promise a star-import would
        # crash on; PEP 562 lazies resolve through getattr like the rest.
        modules = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith(".__main__")  # importing it runs the CLI
        ]
        for module in modules:
            for name in getattr(module, "__all__", ()):
                assert getattr(module, name, None) is not None, (
                    f"{module.__name__}.{name}"
                )

    def test_core_mirror(self):
        core = importlib.import_module("repro.core")
        for name in core.__all__:
            assert getattr(repro, name) is getattr(core, name)

    def test_readme_quickstart_works(self):
        """The exact code from README.md's quickstart section."""
        from repro import ECConsensus, ReliableBroadcast, World, attach_ec_stack
        from repro.workloads import partially_synchronous_link

        world = World(n=5, seed=7,
                      default_link=partially_synchronous_link(gst=40.0))
        detectors = attach_ec_stack(world, suspects="ring")
        protocols = []
        for pid in world.pids:
            rb = world.attach(pid, ReliableBroadcast(channel="consensus.rb"))
            protocols.append(world.attach(pid, ECConsensus(detectors[pid], rb)))
        world.start()
        for pid in world.pids:
            protocols[pid].propose(f"value-{pid}")
        world.schedule_crash(0, 120.0)
        world.run(until=2500.0)
        decisions = [p.decision for p in protocols if p.decided]
        assert decisions
        assert all(d == decisions[0] for d in decisions)

    def test_subpackages_importable(self):
        for module in (
            "repro.sim", "repro.fd", "repro.transform", "repro.broadcast",
            "repro.consensus", "repro.analysis", "repro.workloads",
            "repro.core", "repro.cli", "repro.net", "repro.obs",
            "repro.cluster", "repro.proc",
        ):
            importlib.import_module(module)

    def test_unified_cluster_surface(self):
        """The ClusterAPI contract and both implementations share a home."""
        from repro.cluster import (
            ClusterAPI, LocalCluster, ProcessCluster, standard_verdicts,
            verdicts_ok,
        )

        for method in ("start", "stop", "crash", "wait_quiescent",
                       "traces", "verdicts"):
            assert hasattr(LocalCluster, method), method
            assert hasattr(ProcessCluster, method), method
        assert callable(standard_verdicts) and callable(verdicts_ok)
        assert isinstance(ClusterAPI, type)

    def test_local_cluster_net_reexport_does_not_warn(self):
        """`from repro.net import LocalCluster` stays first-class."""
        import warnings

        import repro.net as net
        from repro.cluster import LocalCluster as canonical

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert net.LocalCluster is canonical
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_public_items_documented(self):
        """Every public callable/class reachable from the root has a
        docstring (deliverable (e): doc comments on every public item)."""
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not getattr(obj, "__doc__", None):
                undocumented.append(name)
        assert not undocumented, undocumented


class TestReexportIntegrity:
    """Package ``__init__`` promises resolve to the defining objects.

    Re-export drift (a submodule rename ``__init__`` missed) breaks
    ``from repro.X import Y`` for users even while tests importing the
    submodules directly stay green.
    """

    def test_analysis_result_types_are_the_defining_ones(self):
        import repro.analysis.consensus_properties as cp
        import repro.analysis.fd_properties as fdp
        import repro.analysis.qos as qos

        assert ConsensusOutcome is cp.ConsensusOutcome
        assert FDRecord is fdp.FDRecord
        assert PropertyCheck is fdp.PropertyCheck
        assert QoSReport is qos.QoSReport
        for result_type in (ConsensusOutcome, PropertyCheck, QoSReport):
            assert dataclasses.is_dataclass(result_type)

    def test_cluster_enumerations_match_net_delegation(self):
        # repro.net lazily re-exports the moved names via module
        # __getattr__; the delegation must land on the identical objects.
        import repro.net as net

        assert net.TRANSPORTS is TRANSPORTS
        assert net.attach_standard_stack.__module__ == "repro.cluster.local"
        assert set(STACKS) == {"ring", "heartbeat", "rsm"}
        assert set(TRANSPORTS) == {"loopback", "udp", "tcp"}

    def test_lint_rule_registries_are_disjoint_and_nonempty(self):
        # One registry since the two rule kinds merged: 12 ids, unique.
        ids = [rule.id for rule in all_rules()]
        assert len(ids) == len(set(ids)) == 12

    def test_runtime_world_types_come_from_host(self):
        import repro.net.host as host

        assert RuntimeNetwork is host.RuntimeNetwork
        assert RuntimeWorld is host.RuntimeWorld

    def test_one_send_path_behind_both_networks(self):
        clock = VirtualClock()
        host = NodeHost(
            0, 2, LoopbackTransport(0, LoopbackHub(clock)), FaultPlan(2),
            clock=clock,
        )
        for network in (World(n=2).network, host.world.network):
            assert isinstance(network, NetworkAPI)
        # The runtime adds only the crossing: send / send_many are the
        # simulator module's, and it has no link table to pretend about.
        assert not {"send", "send_many", "_finish_delivery"} & set(
            vars(RuntimeNetwork)
        )
        assert not hasattr(RuntimeNetwork, "set_link")
        assert RuntimeNetwork.send_many is Network.send_many
        # One plan class for both; repro.net re-exports the simulator's.
        assert FaultPlan is type(World(n=2).plan) is type(host.plan)

    def test_obs_schema_types_and_trace_alias(self):
        assert Trace is MemorySink  # the historical name stays importable
        assert {f.name for f in dataclasses.fields(EventSchema)} >= {
            "kind", "required", "optional",
        }
        assert {f.name for f in dataclasses.fields(MetricSchema)} >= {
            "name", "kind", "labels",
        }

    def test_proc_build_node_is_the_node_module_factory(self):
        import repro.proc.node as node

        assert build_node is node.build_node

    def test_sim_api_protocols_and_helpers(self):
        for protocol in (NetworkAPI, ProcessAPI, SchedulerAPI, WorldAPI):
            assert getattr(protocol, "_is_protocol", False)
        assert stream_for.__module__ == "repro.sim.api"
        world = World(n=2, seed=7)
        stream = stream_for(world, "fd", 0)
        assert isinstance(stream, random.Random)

    def test_sim_periodic_is_the_component_timer(self):
        import repro.sim.component as component

        assert Periodic is component.Periodic

    def test_workloads_consensus_run_shape(self):
        assert dataclasses.is_dataclass(ConsensusRun)
        names = {f.name for f in dataclasses.fields(ConsensusRun)}
        assert {"world", "algo"} <= names
