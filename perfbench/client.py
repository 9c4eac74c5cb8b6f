"""Line-protocol client: open-loop over TCP, windowed over a child's pipes.

One thread drives every channel with ``select``, so no interpreter lock
hand-off delays a timestamp.  Replies are matched to requests in the order
each channel sent them, which is the service's per-connection guarantee.
"""

from __future__ import annotations

import os
import select
import socket
from collections import deque
from dataclasses import dataclass
from time import perf_counter

import numpy as np


class Channel:
    """One ordered request/reply stream over a pair of non-blocking fds."""

    def __init__(self, rfd: int, wfd: int, owner=None):
        self.rfd, self.wfd, self.owner = rfd, wfd, owner
        os.set_blocking(rfd, False)
        os.set_blocking(wfd, False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.pending: deque = deque()
        self.dead = False

    @classmethod
    def tcp(cls, addr: tuple) -> "Channel":
        sock = socket.create_connection(addr, timeout=5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock.fileno(), sock.fileno(), owner=sock)

    def close(self) -> None:
        if isinstance(self.owner, socket.socket):
            self.owner.close()


@dataclass
class Exchange:
    """Per-request times (``perf_counter`` seconds) and raw replies.

    ``due`` is when a request was scheduled (open loop) or queued (window),
    ``sent`` when the generator queued it, ``got`` when its reply arrived
    (NaN if it never did).
    """

    due: np.ndarray
    sent: np.ndarray
    got: np.ndarray
    replies: list
    dropped: bool

    @property
    def latency(self) -> np.ndarray:
        return self.got - self.due

    @property
    def lateness(self) -> np.ndarray:
        return self.sent - self.due


def drive(chans: list, requests: list, due=None, window: int | None = None,
          stop_at: float | None = None, grace: float = 3.0) -> Exchange:
    """Send ``requests`` (newline-terminated bytes) round-robin over ``chans``.

    Open loop: ``due`` gives each request's send time and the schedule is
    kept whatever the replies do.  Windowed: at most ``window`` requests are
    in flight, and sending stops at ``stop_at``.  After the last send the
    client waits up to ``grace`` seconds for the outstanding replies.
    """
    n = len(requests)
    due_at = np.asarray(due, dtype=float) if due is not None else np.full(n, np.nan)
    sent = np.full(n, np.nan)
    got = np.full(n, np.nan)
    replies: list = [None] * n
    i = received = 0
    deadline = None
    while True:
        now = perf_counter()
        while (i < n and (window is None or i - received < window)
               and (due is None or due_at[i] <= now) and (stop_at is None or now < stop_at)):
            ch = chans[i % len(chans)]
            if not ch.dead:
                ch.out += requests[i]
                ch.pending.append(i)
                sent[i] = now
                if due is None:
                    due_at[i] = now
            i += 1
        done_sending = i >= n or (stop_at is not None and now >= stop_at)
        live = [ch for ch in chans if not ch.dead]
        if not live or (done_sending and not any(ch.pending for ch in live)):
            break
        if done_sending and deadline is None:
            deadline = now + grace
        if deadline is not None and now > deadline:
            break
        for ch in live:
            if ch.out:
                try:
                    del ch.out[: os.write(ch.wfd, ch.out)]
                except BlockingIOError:
                    pass
                except OSError:
                    ch.dead = True
        if done_sending or (window is not None and i - received >= window):
            timeout = 0.05
        else:
            timeout = max(0.0, due_at[i] - perf_counter()) if due is not None else 0.0
        rfds = [ch.rfd for ch in live]
        wfds = [ch.wfd for ch in live if ch.out]
        readable, _, _ = select.select(rfds, wfds, [], timeout)
        if not readable:
            continue
        now = perf_counter()
        for ch in live:
            if ch.rfd not in readable:
                continue
            try:
                data = os.read(ch.rfd, 1 << 16)
            except BlockingIOError:
                continue
            except OSError:
                data = b""
            if not data:
                ch.dead = True
                continue
            ch.inbuf += data
            start = 0
            while True:
                end = ch.inbuf.find(b"\n", start)
                if end < 0:
                    break
                if not ch.pending:      # a reply nobody asked for
                    ch.dead = True
                    break
                j = ch.pending.popleft()
                got[j] = now
                replies[j] = bytes(ch.inbuf[start:end])
                received += 1
                start = end + 1
            del ch.inbuf[:start]
    return Exchange(due_at[:i], sent[:i], got[:i], replies[:i], any(ch.dead for ch in chans))
