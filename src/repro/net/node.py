"""Network nodes: named endpoints that host agents."""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Packet


class Node:
    """A named endpoint hosting agents on numbered ports.

    Incoming packets are delivered to the agent on the packet's
    destination port (header ``port``, default 0).
    """

    def __init__(self, sim, name: str):
        self.sim = sim
        self.name = name
        self._agents: dict[int, "NetAgent"] = {}
        self._links: list = []

    def attach(self, agent, port: int = 0) -> None:
        if port in self._agents:
            raise ValueError(f"node {self.name}: port {port} already in use")
        self._agents[port] = agent
        agent.node = self
        agent.port = port

    def detach(self, port: int) -> None:
        agent = self._agents.pop(port, None)
        if agent is not None:
            agent.node = None

    def agent_on(self, port: int):
        return self._agents.get(port)

    def register_link(self, link) -> None:
        self._links.append(link)

    def link_to(self, other: "Node"):
        """The first registered link whose far end is ``other``."""
        for link in self._links:
            if link.dst_node is other:
                return link
        return None

    def deliver(self, packet: Packet) -> None:
        """Hand an arriving packet to the agent on its destination port."""
        port = packet.headers.get("port", 0)
        agent = self._agents.get(port)
        obs = self.sim.obs
        if obs is not None:
            obs.tracer.event(
                "net", "receive", src=str(packet.src), dst=self.name,
                kind=packet.kind, size=packet.size, uid=packet.uid,
            )
        if agent is not None:
            agent.recv(packet)

    def __repr__(self) -> str:
        return f"Node({self.name!r}, agents={sorted(self._agents)})"
