"""A real transport: the V kernel protocol over asyncio UDP sockets.

The discrete-event backend answers the paper's *quantitative* questions; this
backend answers the "is it a real protocol?" one.  Every host is a UDP
endpoint on 127.0.0.1, every kernel packet crosses a socket in the
:mod:`repro.net.wire` encoding, and -- the point of the whole effects design
-- the *same server generators* (file server, prefix server, mail server,
...) run unmodified: ``AsyncHost`` is simply a second interpreter for the
effect vocabulary of :mod:`repro.kernel.ipc`.

Supported effects: Send, Receive, Reply, Forward, MoveTo, MoveFrom, SetPid,
GetPid, Delay, Now, MyPid, Spawn, JoinGroup/LeaveGroup/GroupSend (group sends
fan out as unicast datagrams; membership is shared in-process, standing in
for the kernel group protocol).  Known divergences from the DES backend:
timing is wall-clock, there is no probe protocol (plain reply timeouts), and
message fields must be wire-encodable.

Example (see ``examples/asyncio_demo.py``)::

    domain = AsyncDomain()
    ws = await domain.create_host("ws")
    fs = await domain.create_host("fs")
    fs.spawn(VFileServer(user="mann").body(), "fileserver")
    ...
    await domain.run_until_idle()
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from typing import Any, Optional

from repro.kernel import ipc
from repro.kernel.errors import IllegalEffect, KernelError, NotAwaitingReply
from repro.kernel.messages import Message, Packet, PacketKind, ReplyCode
from repro.kernel.pids import Pid, PidAllocator
from repro.kernel.services import Scope, ServiceRegistry
from repro.net.wire import decode_packet, encode_packet
from repro.sim.process import Task, TaskFailure

#: How long a Send waits for a reply before failing with TIMEOUT (seconds,
#: wall clock).  Generous: loopback RTTs are microseconds.
REPLY_TIMEOUT = 5.0
GETPID_TIMEOUT = 0.25
MOVE_TIMEOUT = 5.0

_txn_counter = itertools.count(1)
_waiter_counter = itertools.count(1)


class _Endpoint(asyncio.DatagramProtocol):
    def __init__(self, host: "AsyncHost") -> None:
        self.host = host

    def datagram_received(self, data: bytes, addr) -> None:
        self.host._on_datagram(data)


class _AsyncProcess:
    def __init__(self, pid: Pid, task: Task, name: str) -> None:
        self.pid = pid
        self.task = task
        self.name = name
        self.queue: deque[ipc.Delivery] = deque()
        self.arrival = asyncio.Event()
        self.unreplied: dict[int, ipc.Delivery] = {}
        self.alive = True


class AsyncHost:
    """One machine: kernel tables + an asyncio effect interpreter."""

    def __init__(self, domain: "AsyncDomain", host_id: int, name: str) -> None:
        self.domain = domain
        self.host_id = host_id
        self.name = name
        self.allocator = PidAllocator(host_id)
        self.registry = ServiceRegistry()
        self.processes: dict[int, _AsyncProcess] = {}
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.address: Optional[tuple[str, int]] = None
        #: txn -> future resolved with the reply Message.
        self._reply_waiters: dict[int, asyncio.Future] = {}
        #: waiter id -> future resolved with a Pid (GetPid broadcast).
        self._getpid_waiters: dict[int, asyncio.Future] = {}
        #: txn of a Send in flight -> exposed Segment (for moves).
        self._exposed: dict[int, ipc.Segment] = {}
        #: move txn -> future.
        self._move_waiters: dict[int, asyncio.Future] = {}
        self._tasks: set[asyncio.Task] = set()
        #: Datagrams dropped because they did not decode.  No drop may go
        #: uncounted; a sender still sees only a timeout.
        self.decode_errors = 0

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self.transport, __ = await loop.create_datagram_endpoint(
            lambda: _Endpoint(self), local_addr=("127.0.0.1", 0))
        self.address = self.transport.get_extra_info("sockname")[:2]

    def close(self) -> None:
        for task in self._tasks:
            task.cancel()
        if self.transport is not None:
            self.transport.close()

    # ------------------------------------------------------------- processes

    def spawn(self, body, name: str = "process") -> Pid:
        pid = self.allocator.allocate()
        if callable(body) and not hasattr(body, "send"):
            body = body(pid)
        proc = _AsyncProcess(pid, Task(body, name=f"{self.name}/{name}"), name)
        self.processes[pid.local_id] = proc
        task = asyncio.get_running_loop().create_task(self._run(proc))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return pid

    async def _run(self, proc: _AsyncProcess) -> None:
        value: Any = None
        exc: BaseException | None = None
        first = True
        try:
            while True:
                try:
                    if first:
                        finished, effect = proc.task.start()
                        first = False
                    elif exc is not None:
                        err, exc = exc, None
                        finished, effect = proc.task.throw(err)
                    else:
                        finished, effect = proc.task.resume(value)
                except TaskFailure as failure:
                    self.domain.failures.append((proc.task.name,
                                                 failure.original))
                    break
                if finished:
                    break
                try:
                    value = await self._perform(proc, effect)
                except KernelError as err:
                    value, exc = None, err
        finally:
            self._terminate(proc)

    def _terminate(self, proc: _AsyncProcess) -> None:
        if not proc.alive:
            return
        proc.alive = False
        for delivery in list(proc.queue) + list(proc.unreplied.values()):
            self._send_reply_packet(
                proc.pid, delivery, Message.reply(ReplyCode.NONEXISTENT_PROCESS))
        proc.queue.clear()
        proc.unreplied.clear()
        self.registry.remove_pid(proc.pid)
        self.domain.groups.pop_pid(proc.pid)
        self.processes.pop(proc.pid.local_id, None)
        self.domain.process_exited()

    def find_process(self, pid: Pid) -> Optional[_AsyncProcess]:
        proc = self.processes.get(pid.local_id)
        if proc is not None and proc.pid == pid and proc.alive:
            return proc
        return None

    # --------------------------------------------------------------- effects

    async def _perform(self, proc: _AsyncProcess, effect: Any) -> Any:
        if isinstance(effect, ipc.Send):
            return await self._do_send(proc, effect.dst, effect.message,
                                       effect.expose)
        if isinstance(effect, ipc.Receive):
            return await self._do_receive(proc, effect.from_pid)
        if isinstance(effect, ipc.Reply):
            return self._do_reply(proc, effect)
        if isinstance(effect, ipc.Forward):
            return self._do_forward(proc, effect)
        if isinstance(effect, ipc.MoveFrom):
            return await self._do_move(proc, effect.src, "from",
                                       effect.offset, effect.nbytes, None)
        if isinstance(effect, ipc.MoveTo):
            return await self._do_move(proc, effect.dst, "to",
                                       effect.offset, len(effect.data),
                                       effect.data)
        if isinstance(effect, ipc.Delay):
            await asyncio.sleep(effect.seconds)
            return None
        if isinstance(effect, ipc.Now):
            return asyncio.get_running_loop().time()
        if isinstance(effect, ipc.MyPid):
            return proc.pid
        if isinstance(effect, ipc.SetPid):
            self.registry.set_pid(effect.service, proc.pid, effect.scope)
            return None
        if isinstance(effect, ipc.GetPid):
            return await self._do_get_pid(effect.service, effect.scope)
        if isinstance(effect, ipc.Spawn):
            return self.spawn(effect.body, effect.name)
        if isinstance(effect, ipc.JoinGroup):
            self.domain.groups.join(effect.group_id, proc.pid)
            return None
        if isinstance(effect, ipc.LeaveGroup):
            self.domain.groups.leave(effect.group_id, proc.pid)
            return None
        if isinstance(effect, ipc.GroupSend):
            return await self._do_group_send(proc, effect)
        if isinstance(effect, ipc.Annotate):
            # Span annotations are simulation-side observability; the socket
            # transport carries no trace contexts, so this is a no-op.
            return None
        if isinstance(effect, (ipc.ProfileEnter, ipc.ProfileExit)):
            # Attribution frames profile the discrete-event clock; there is
            # no simulated time to charge here, so they are no-ops too.
            return None
        if isinstance(effect, ipc.Exit):
            raise asyncio.CancelledError
        raise IllegalEffect(f"{effect!r} is not a kernel effect")

    # ------------------------------------------------------------------ send

    def _sendto(self, data: bytes, host_id: int) -> None:
        address = self.domain.address_of(host_id)
        if address is not None and self.transport is not None:
            self.transport.sendto(data, address)

    def _send_packet(self, packet: Packet, host_id: int) -> None:
        self._sendto(encode_packet(packet), host_id)

    async def _do_send(self, proc: _AsyncProcess, dst: Pid, message: Message,
                       expose: Optional[ipc.Segment]) -> Message:
        if dst.is_logical_service:
            raise IllegalEffect(f"cannot Send to logical pid {dst!r}")
        txn = next(_txn_counter)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._reply_waiters[txn] = future
        if expose is not None:
            self._exposed[txn] = expose
        packet = Packet(PacketKind.REQUEST, src_pid=proc.pid, dst_pid=dst,
                        txn_id=txn, message=message)
        self._send_packet(packet, dst.logical_host)
        try:
            return await asyncio.wait_for(future, REPLY_TIMEOUT)
        except asyncio.TimeoutError:
            return Message.reply(ReplyCode.TIMEOUT)
        finally:
            self._reply_waiters.pop(txn, None)
            self._exposed.pop(txn, None)

    async def _do_receive(self, proc: _AsyncProcess,
                          from_pid: Optional[Pid]) -> ipc.Delivery:
        while True:
            for index, delivery in enumerate(proc.queue):
                if from_pid is None or delivery.sender == from_pid:
                    del proc.queue[index]
                    proc.unreplied[delivery.txn_id] = delivery
                    return delivery
            proc.arrival.clear()
            await proc.arrival.wait()

    def _find_unreplied(self, proc: _AsyncProcess, to: Pid) -> ipc.Delivery:
        for txn_id, delivery in proc.unreplied.items():
            if delivery.sender == to:
                return proc.unreplied.pop(txn_id)
        raise NotAwaitingReply(f"{to!r} is not awaiting a reply from {proc.name!r}")

    def _do_reply(self, proc: _AsyncProcess, effect: ipc.Reply) -> None:
        delivery = self._find_unreplied(proc, effect.to)
        self._send_reply_packet(proc.pid, delivery, effect.message)
        return None

    def _send_reply_packet(self, from_pid: Pid, delivery: ipc.Delivery,
                           message: Message) -> None:
        packet = Packet(PacketKind.REPLY, src_pid=from_pid,
                        dst_pid=delivery.sender, txn_id=delivery.txn_id,
                        message=message)
        self._send_packet(packet, delivery.sender.logical_host)

    def _do_forward(self, proc: _AsyncProcess, effect: ipc.Forward) -> None:
        delivery = effect.delivery
        if proc.unreplied.pop(delivery.txn_id, None) is None:
            raise NotAwaitingReply(
                f"txn {delivery.txn_id} is not held by {proc.name!r}")
        message = effect.message if effect.message is not None else delivery.message
        packet = Packet(PacketKind.REQUEST, src_pid=delivery.sender,
                        dst_pid=effect.dst, txn_id=delivery.txn_id,
                        message=message, info={"forwarder": proc.pid})
        self._send_packet(packet, effect.dst.logical_host)
        return None

    # ----------------------------------------------------------------- moves

    async def _do_move(self, proc: _AsyncProcess, other: Pid, direction: str,
                       offset: int, nbytes: int,
                       data: Optional[bytes]) -> Any:
        if not any(d.sender == other for d in proc.unreplied.values()):
            raise NotAwaitingReply(
                f"bulk move with {other!r}, which is not blocked on us")
        txn = next(iter(d.txn_id for d in proc.unreplied.values()
                        if d.sender == other))
        move_id = next(_waiter_counter)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._move_waiters[move_id] = future
        message = Message.request(0, segment=data) if data is not None else None
        packet = Packet(PacketKind.MOVE_REQUEST, src_pid=proc.pid,
                        dst_pid=other, txn_id=txn, message=message,
                        info={"direction": direction, "offset": offset,
                              "nbytes": nbytes, "move_id": move_id})
        self._send_packet(packet, other.logical_host)
        try:
            result = await asyncio.wait_for(future, MOVE_TIMEOUT)
        except asyncio.TimeoutError as err:
            raise KernelError("bulk move timed out") from err
        finally:
            self._move_waiters.pop(move_id, None)
        if isinstance(result, KernelError):
            raise result
        return result

    # ------------------------------------------------------------------ pids

    async def _do_get_pid(self, service: int, scope: Scope) -> Optional[Pid]:
        if scope is not Scope.REMOTE:
            local = self.registry.lookup_local(service)
            if local is not None:
                return local
        if scope is Scope.LOCAL:
            return None
        waiter = next(_waiter_counter)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._getpid_waiters[waiter] = future
        packet = Packet(PacketKind.GETPID_QUERY, src_pid=Pid.make(self.host_id, 1),
                        dst_pid=None, txn_id=0,
                        info={"service": int(service), "waiter": waiter,
                              "origin": self.host_id})
        data = encode_packet(packet)
        for host_id in self.domain.host_ids():
            if host_id != self.host_id:
                self._sendto(data, host_id)
        try:
            return await asyncio.wait_for(future, GETPID_TIMEOUT)
        except asyncio.TimeoutError:
            return None
        finally:
            self._getpid_waiters.pop(waiter, None)

    async def _do_group_send(self, proc: _AsyncProcess,
                             effect: ipc.GroupSend) -> Message:
        members = [pid for pid in self.domain.groups.members(effect.group_id)
                   if pid != proc.pid]
        if not members:
            return Message.reply(ReplyCode.NO_SERVER)
        txn = next(_txn_counter)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._reply_waiters[txn] = future
        for member in members:
            packet = Packet(PacketKind.GROUP_REQUEST, src_pid=proc.pid,
                            dst_pid=member, txn_id=txn, message=effect.message,
                            info={"group": effect.group_id})
            self._send_packet(packet, member.logical_host)
        try:
            return await asyncio.wait_for(future, REPLY_TIMEOUT)
        except asyncio.TimeoutError:
            return Message.reply(ReplyCode.NO_SERVER)
        finally:
            self._reply_waiters.pop(txn, None)

    # --------------------------------------------------------------- receive

    def _on_datagram(self, data: bytes) -> None:
        try:
            packet = decode_packet(data)
        except Exception:
            # Broad on purpose: decode is not yet total over arbitrary
            # bytes, and one bad datagram must not kill the endpoint.
            self.decode_errors += 1
            return
        handler = {
            PacketKind.REQUEST: self._on_request,
            PacketKind.GROUP_REQUEST: self._on_request,
            PacketKind.REPLY: self._on_reply,
            PacketKind.NACK: self._on_reply,
            PacketKind.GETPID_QUERY: self._on_getpid_query,
            PacketKind.GETPID_RESPONSE: self._on_getpid_response,
            PacketKind.MOVE_REQUEST: self._on_move_request,
            PacketKind.MOVE_RESPONSE: self._on_move_response,
        }.get(packet.kind)
        if handler is not None:
            handler(packet)

    def _on_request(self, packet: Packet) -> None:
        assert packet.dst_pid is not None and packet.message is not None
        proc = self.find_process(packet.dst_pid)
        if proc is None:
            nack = Packet(PacketKind.NACK, src_pid=packet.dst_pid,
                          dst_pid=packet.src_pid, txn_id=packet.txn_id,
                          message=Message.reply(ReplyCode.NONEXISTENT_PROCESS))
            self._send_packet(nack, packet.src_pid.logical_host)
            return
        proc.queue.append(ipc.Delivery(
            message=packet.message, sender=packet.src_pid,
            txn_id=packet.txn_id, forwarder=packet.info.get("forwarder"),
            via_group=packet.kind is PacketKind.GROUP_REQUEST))
        proc.arrival.set()

    def _on_reply(self, packet: Packet) -> None:
        future = self._reply_waiters.get(packet.txn_id)
        if future is not None and not future.done():
            future.set_result(packet.message)

    def _on_getpid_query(self, packet: Packet) -> None:
        found = self.registry.lookup_remote(packet.info["service"])
        if found is None or self.find_process(found) is None:
            return
        response = Packet(PacketKind.GETPID_RESPONSE, src_pid=found,
                          dst_pid=None, txn_id=0,
                          info={"waiter": packet.info["waiter"], "pid": found})
        self._send_packet(response, packet.info["origin"])

    def _on_getpid_response(self, packet: Packet) -> None:
        future = self._getpid_waiters.get(packet.info["waiter"])
        if future is not None and not future.done():
            future.set_result(packet.info["pid"])

    def _on_move_request(self, packet: Packet) -> None:
        """The mover wants at a segment our local blocked sender exposed."""
        info = packet.info
        segment = self._exposed.get(packet.txn_id)
        response_info = {"move_id": info["move_id"], "ok": segment is not None}
        message = None
        if segment is not None:
            try:
                if info["direction"] == "from":
                    data = segment.read(int(info["offset"]), int(info["nbytes"]))
                    message = Message.request(0, segment=data)
                else:
                    assert packet.message is not None
                    segment.write(int(info["offset"]),
                                  packet.message.segment or b"")
            except KernelError as err:
                response_info["ok"] = False
                response_info["error"] = str(err)
        response = Packet(PacketKind.MOVE_RESPONSE, src_pid=packet.dst_pid or Pid(0),
                          dst_pid=packet.src_pid, txn_id=packet.txn_id,
                          message=message, info=response_info)
        self._send_packet(response, packet.src_pid.logical_host)

    def _on_move_response(self, packet: Packet) -> None:
        future = self._move_waiters.get(packet.info["move_id"])
        if future is None or future.done():
            return
        if not packet.info.get("ok", False):
            future.set_result(KernelError(
                packet.info.get("error", "bulk move rejected")))
        elif packet.message is not None:
            future.set_result(packet.message.segment or b"")
        else:
            future.set_result(None)


class _AsyncGroups:
    def __init__(self) -> None:
        self._members: dict[int, set[Pid]] = {}

    def join(self, group_id: int, pid: Pid) -> None:
        self._members.setdefault(group_id, set()).add(pid)

    def leave(self, group_id: int, pid: Pid) -> None:
        self._members.get(group_id, set()).discard(pid)

    def members(self, group_id: int) -> set[Pid]:
        return set(self._members.get(group_id, set()))

    def pop_pid(self, pid: Pid) -> None:
        for members in self._members.values():
            members.discard(pid)


class AsyncDomain:
    """A V domain over loopback UDP."""

    def __init__(self) -> None:
        self.hosts: dict[int, AsyncHost] = {}
        self.groups = _AsyncGroups()
        self.failures: list[tuple[str, BaseException]] = []
        self._next_host_id = 1
        self._idle = asyncio.Event()
        self._live_processes = 0

    async def create_host(self, name: str | None = None) -> AsyncHost:
        host_id = self._next_host_id
        self._next_host_id += 1
        host = AsyncHost(self, host_id, name or f"host{host_id}")
        await host.start()
        self.hosts[host_id] = host
        return host

    def host_ids(self) -> list[int]:
        return sorted(self.hosts)

    def address_of(self, host_id: int) -> Optional[tuple[str, int]]:
        host = self.hosts.get(host_id)
        return host.address if host is not None else None

    def process_exited(self) -> None:
        pass  # placeholder for completion accounting

    async def shutdown(self) -> None:
        for host in self.hosts.values():
            host.close()
        await asyncio.sleep(0)

    def check_healthy(self) -> None:
        if self.failures:
            name, exc = self.failures[0]
            raise AssertionError(f"process {name} failed: {exc!r}") from exc
