"""Cluster builder structure and runtime controls."""

import pytest

from repro.network import ClusterConfig, build_cluster
from repro.simkernel import Kernel


def test_default_matches_paper_testbed():
    cfg = ClusterConfig()
    assert cfg.n_hosts == 8
    assert cfg.bandwidth_bps == 1_000_000_000


def test_structure_counts():
    k = Kernel()
    c = build_cluster(k, ClusterConfig(n_hosts=4, n_paths=2))
    assert len(c.hosts) == 4
    assert len(c.switches) == 2
    assert len(c.pipes) == 8  # one egress pipe per host per path
    assert len(c.links) == 16  # up+down per host per path
    for h in c.hosts:
        assert len(h.interfaces) == 2


def test_deterministic_addressing():
    cfg = ClusterConfig()
    assert cfg.address(0) == "10.0.0.1"
    assert cfg.address(7, path=2) == "10.2.0.8"
    k = Kernel()
    c = build_cluster(k, ClusterConfig(n_hosts=3, n_paths=2))
    assert c.host_address(2, 1) == "10.1.0.3"


def test_set_loss_rate_applies_to_all_pipes():
    k = Kernel()
    c = build_cluster(k, ClusterConfig(n_hosts=2))
    c.set_loss_rate(0.05)
    assert all(p.loss_rate == 0.05 for p in c.pipes.values())
    with pytest.raises(ValueError):
        c.set_loss_rate(1.5)


def test_invalid_configs_rejected():
    k = Kernel()
    with pytest.raises(ValueError):
        build_cluster(k, ClusterConfig(n_hosts=0))
    with pytest.raises(ValueError):
        build_cluster(k, ClusterConfig(n_paths=0))


def test_total_dropped_counts_pipe_drops():
    from repro.network import Packet

    k = Kernel(seed=3)
    c = build_cluster(k, ClusterConfig(n_hosts=2, loss_rate=0.5))
    for i in range(100):
        c.hosts[0].send(
            Packet(
                src=c.host_address(0),
                dst=c.host_address(1),
                proto="t",
                payload=i,
                wire_size=64,
            )
        )
    k.run()
    assert 20 < c.total_dropped() < 80


# -- pod clusters (n_pods > 1) ---------------------------------------------
def test_pod_cluster_builds_expected_link_set():
    c = build_cluster(Kernel(seed=1), ClusterConfig(n_hosts=8, n_paths=2, n_pods=4))
    expected = set()
    for p in range(2):
        for h in range(8):
            sw = f"sw{p}pod{h // 2}"  # 8 hosts over 4 pods: two per pod
            expected |= {f"h{h}p{p}->{sw}", f"{sw}->h{h}p{p}"}
        expected |= {
            f"sw{p}pod{a}->sw{p}pod{b}" for a in range(4) for b in range(4) if a != b
        }
    assert set(c.links) == expected
    assert [s.name for s in c.switches] == [
        f"sw{p}pod{pod}" for p in range(2) for pod in range(4)
    ]


def test_pod_switches_form_full_trunk_mesh():
    from repro.network import Packet

    k = Kernel(seed=1)
    c = build_cluster(k, ClusterConfig(n_hosts=8, n_pods=4))
    trunks = {name for name in c.links if name.startswith("sw") and "->sw" in name}
    assert len(trunks) == 4 * 3
    assert trunks == {
        f"sw0pod{a}->sw0pod{b}" for a in range(4) for b in range(4) if a != b
    }
    # host 0 (pod 0) to host 7 (pod 3) crosses exactly one trunk
    c.hosts[0].send(
        Packet(src=c.host_address(0), dst=c.host_address(7), proto="t",
               payload=0, wire_size=64)
    )
    k.run()
    used = {name for name in trunks if c.links[name].tx_packets}
    assert used == {"sw0pod0->sw0pod3"}
    assert c.links["sw0pod3->h7p0"].tx_packets == 1


def test_single_pod_keeps_flat_switch_names():
    c = build_cluster(Kernel(seed=1), ClusterConfig(n_hosts=2, n_pods=1))
    assert [s.name for s in c.switches] == ["sw0"]
    assert set(c.links) == {"h0p0->sw0", "sw0->h0p0", "h1p0->sw0", "sw0->h1p0"}
