"""The same servers over real UDP sockets (repro.net.asyncio_transport).

These tests prove the protocol stack is a genuine message protocol: the
file server, prefix server, and mail server run *unmodified* over loopback
datagrams with the binary wire encoding.
"""

import asyncio

import pytest

from repro.core.context import ContextPair, WellKnownContext
from repro.core.prefix_server import ContextPrefixServer
from repro.kernel.ipc import Segment, Send
from repro.kernel.messages import Message, ReplyCode, RequestCode
from repro.net.asyncio_transport import AsyncDomain
from repro.net.latency import STANDARD_3MBIT
from repro.runtime import files
from repro.runtime.session import Session
from repro.servers.fileserver.server import VFileServer
from repro.servers.mailserver import MailServer


def run_async(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


async def run_client(domain, host, gen, name="client"):
    """Spawn a client generator and await its completion."""
    done = asyncio.Event()
    box = {}

    def wrapper():
        box["result"] = yield from gen
        done.set()

    host.spawn(wrapper(), name)
    await done.wait()
    domain.check_healthy()
    return box["result"]


async def base_system():
    domain = AsyncDomain()
    ws = await domain.create_host("ws")
    fs_host = await domain.create_host("fs")
    fileserver = VFileServer(user="mann")
    fs_pid = fs_host.spawn(fileserver.body(), "fileserver")
    prefix = ContextPrefixServer(user="mann")
    prefix_pid = ws.spawn(prefix.body(), "prefix")
    await asyncio.sleep(0.05)  # let both register
    prefix.define_prefix("home",
                         ContextPair(fs_pid, int(WellKnownContext.HOME)))
    session = Session(ContextPair(fs_pid, int(WellKnownContext.HOME)),
                      prefix_pid, STANDARD_3MBIT)
    return domain, ws, fs_host, fileserver, fs_pid, session


class TestFileServiceOverUdp:
    def test_write_read_roundtrip(self):
        async def scenario():
            domain, ws, *__, session = await base_system()
            def client():
                yield from files.write_file(session, "u.txt", b"over udp")
                return (yield from files.read_file(session, "u.txt"))
            result = await run_client(domain, ws, client())
            await domain.shutdown()
            return result

        assert run_async(scenario()) == b"over udp"

    def test_prefix_forwarding_over_sockets(self):
        async def scenario():
            domain, ws, *__, session = await base_system()
            def client():
                yield from files.write_file(session, "[home]p.txt", b"fw")
                return (yield from files.read_file(session, "[home]p.txt"))
            result = await run_client(domain, ws, client())
            await domain.shutdown()
            return result

        assert run_async(scenario()) == b"fw"

    def test_profiled_prefix_server_survives_udp(self):
        # A nonzero parse_cpu makes dispatch() yield ProfileEnter/Exit
        # around its Delay; the socket interpreter must treat them as
        # no-ops (like Annotate), not IllegalEffect.
        async def scenario():
            domain = AsyncDomain()
            ws = await domain.create_host("ws")
            fs_host = await domain.create_host("fs")
            fs_pid = fs_host.spawn(VFileServer(user="mann").body(),
                                   "fileserver")
            prefix = ContextPrefixServer(parse_cpu=0.001, user="mann")
            prefix_pid = ws.spawn(prefix.body(), "prefix")
            await asyncio.sleep(0.05)
            prefix.define_prefix(
                "home", ContextPair(fs_pid, int(WellKnownContext.HOME)))
            session = Session(ContextPair(fs_pid, int(WellKnownContext.HOME)),
                              prefix_pid, STANDARD_3MBIT)

            def client():
                yield from files.write_file(session, "[home]prof.txt", b"ok")
                return (yield from files.read_file(session, "[home]prof.txt"))

            result = await run_client(domain, ws, client())
            await domain.shutdown()
            return result

        assert run_async(scenario()) == b"ok"

    def test_directory_listing_over_sockets(self):
        async def scenario():
            domain, ws, *__, session = await base_system()
            def client():
                yield from files.write_file(session, "a.txt", b"1")
                yield from files.write_file(session, "b.txt", b"22")
                return (yield from session.list_directory("."))
            records = await run_client(domain, ws, client())
            await domain.shutdown()
            return records

        records = run_async(scenario())
        assert [r.name for r in records] == ["a.txt", "b.txt"]
        assert records[1].size_bytes == 2

    def test_moveto_program_load_over_sockets(self):
        async def scenario():
            domain, ws, *__, session = await base_system()
            image = bytes(range(256)) * 64  # 16 KB
            def client():
                yield from files.write_file(session, "[home]img", image)
                from repro.runtime.program import load_program
                return (yield from load_program(session, "[home]img"))
            loaded = await run_client(domain, ws, client())
            await domain.shutdown()
            return loaded == image

        assert run_async(scenario())

    def test_send_to_dead_pid_nacks(self):
        async def scenario():
            domain, ws, fs_host, *__ = await base_system()
            from repro.kernel.pids import Pid
            dead = Pid.make(fs_host.host_id, 0xBEEF)
            def client():
                reply = yield Send(dead, Message.request(1))
                return reply.reply_code
            code = await run_client(domain, ws, client())
            await domain.shutdown()
            return code

        assert run_async(scenario()) is ReplyCode.NONEXISTENT_PROCESS

    def test_mail_forwarding_over_sockets(self):
        async def scenario():
            domain, ws, fs_host, __, fs_pid, session = await base_system()
            mail_host = await domain.create_host("mail")
            stanford = MailServer(hostname="su-score.ARPA")
            mail_pid = mail_host.spawn(stanford.body(), "mail")
            await asyncio.sleep(0.05)
            stanford.add_mailbox("cheriton")

            def client():
                from repro.core.protocol import make_csname_request
                request = make_csname_request(
                    RequestCode.MAIL_DELIVER, "cheriton@su-score.ARPA", 0,
                    body=b"sockets!")
                reply = yield Send(mail_pid, request)
                return reply
            reply = await run_client(domain, ws, client())
            await domain.shutdown()
            return reply, stanford

        reply, stanford = run_async(scenario())
        assert reply.ok
        assert stanford.mailboxes["cheriton"].messages[0].body == b"sockets!"


class TestUndecodableDatagrams:
    def test_garbage_is_counted_and_the_endpoint_keeps_serving(self):
        async def scenario():
            import socket

            domain, ws, fs_host, *__, session = await base_system()
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.sendto(b"\xffnot a V packet", fs_host.address)
                for __ in range(100):
                    await asyncio.sleep(0.01)
                    if fs_host.decode_errors:
                        break
            errors = fs_host.decode_errors

            def client():
                yield from files.write_file(session, "after.txt", b"still up")
                return (yield from files.read_file(session, "after.txt"))

            result = await run_client(domain, ws, client())
            await domain.shutdown()
            return errors, result, fs_host.decode_errors

        errors, result, after = run_async(scenario())
        assert errors == 1
        assert result == b"still up"
        assert after == 1


class TestAsyncExtras:
    def test_group_send_over_udp(self):
        """GroupSend fans out as datagrams; first reply wins."""
        from repro.kernel.ipc import GroupSend, JoinGroup, Receive, Reply

        async def scenario():
            from repro.net.asyncio_transport import AsyncDomain

            domain = AsyncDomain()
            client_host = await domain.create_host("client")
            members = [await domain.create_host(f"m{i}") for i in range(2)]

            def member(key):
                def body():
                    yield JoinGroup(0x5555)
                    while True:
                        delivery = yield Receive()
                        if delivery.message.get("key") == key:
                            yield Reply(delivery.sender,
                                        Message.reply(ReplyCode.OK,
                                                      owner=key))
                return body

            members[0].spawn(member("left")(), "left")
            members[1].spawn(member("right")(), "right")
            await asyncio.sleep(0.05)

            done = asyncio.Event()
            box = {}

            def client():
                reply = yield GroupSend(0x5555, Message.request(1,
                                                                key="right"))
                box["owner"] = reply.get("owner")
                done.set()

            client_host.spawn(client(), "client")
            await asyncio.wait_for(done.wait(), 10)
            await domain.shutdown()
            return box["owner"]

        assert run_async(scenario()) == "right"

    def test_spawn_effect_over_udp(self):
        from repro.kernel.ipc import Delay, Spawn

        async def scenario():
            from repro.net.asyncio_transport import AsyncDomain

            domain = AsyncDomain()
            host = await domain.create_host("solo")
            done = asyncio.Event()
            marks = []

            def child():
                marks.append("child-ran")
                yield Delay(0.001)

            def parent():
                child_pid = yield Spawn(child(), "child")
                marks.append(child_pid.logical_host)
                yield Delay(0.01)
                done.set()

            host.spawn(parent(), "parent")
            await asyncio.wait_for(done.wait(), 10)
            await domain.shutdown()
            return marks, host.host_id

        marks, host_id = run_async(scenario())
        assert "child-ran" in marks
        assert host_id in marks

    def test_getpid_timeout_returns_none_over_udp(self):
        from repro.kernel.ipc import GetPid
        from repro.kernel.services import Scope

        async def scenario():
            from repro.net.asyncio_transport import AsyncDomain

            domain = AsyncDomain()
            host = await domain.create_host("lonely")
            await domain.create_host("other")
            done = asyncio.Event()
            box = {}

            def client():
                box["pid"] = yield GetPid(99, Scope.ANY)
                done.set()

            host.spawn(client(), "client")
            await asyncio.wait_for(done.wait(), 10)
            await domain.shutdown()
            return box["pid"]

        assert run_async(scenario()) is None
