"""The networked prototype: threaded and non-blocking TCP servers + clients.

Two transports, one connection core: :class:`TransactionServer` is the
thread-per-connection fidelity baseline from the paper;
:class:`AsyncTransactionServer` is the high-throughput layer on one
``selectors`` loop thread (pipelining, inline dispatch per received
chunk, one send per chunk); what a connection's
bytes *mean* is :class:`repro.net.requests.Conversation` for both — see
``docs/networking.md``.
"""

from repro.net.aioclient import AsyncRemoteConnection, AsyncRemoteTransaction, connect
from repro.net.aioserver import AsyncTransactionServer, serve_in_thread
from repro.net.client import RemoteConnection, RemoteTransaction
from repro.net.clock import VirtualClock, synchronized_generator
from repro.net.protocol import FrameReader, decode_message, encode_message
from repro.net.server import TransactionServer, serve_forever

__all__ = [
    "AsyncRemoteConnection",
    "AsyncRemoteTransaction",
    "AsyncTransactionServer",
    "connect",
    "serve_in_thread",
    "RemoteConnection",
    "RemoteTransaction",
    "VirtualClock",
    "synchronized_generator",
    "FrameReader",
    "decode_message",
    "encode_message",
    "TransactionServer",
    "serve_forever",
]
