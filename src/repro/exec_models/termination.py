"""Token-ring termination detection for distributed work stealing.

A double-round dirty-bit token protocol (the ring form of Dijkstra-Safra,
specialized to work stealing where work moves via one-sided steals rather
than messages):

- The token carries a count of consecutive *clean* hops. Rank 0 launches it
  the first time it goes idle.
- A rank holds the token (it waits in the mailbox) while it has work; it
  forwards the token only when idle with an empty queue.
- A rank is **dirty** if it acquired work (a successful steal, or work
  appearing in its queue by being a steal victim is irrelevant — only
  *gaining* work matters for the safety argument) since it last forwarded
  the token. A dirty rank forwards with count reset to 0 and goes clean.
- When a forward would raise the count to ``2 * n_ranks``, the holder
  declares termination and broadcasts ``terminate``.

Safety: termination needs 2P consecutive clean idle forwards. Any extant
task sits in some queue; its holder will not forward the token, so the
count can never complete the double round while work exists. Steals move
tasks atomically under the victim's queue lock (no "nowhere" state), and
the thief marks itself dirty at transfer completion, breaking the classic
behind-the-token race. Liveness: once all work is done, every rank
eventually idles, forwards, and the count reaches 2P.
"""

from __future__ import annotations

from repro.runtime.comm import RankContext
from repro.util import check_integer, check_positive

TOKEN_TAG = "token"
TERMINATE_TAG = "terminate"


class TokenRing:
    """Shared termination-detection state for one run (or one epoch).

    ``epoch`` (optional) is folded into the message tags so that several
    rings can run back-to-back over one network — the iterative SCF
    simulation runs one ring per Fock build, and stale tokens from a
    finished epoch must never match a later epoch's receives.
    """

    def __init__(self, n_ranks: int, epoch: int | None = None) -> None:
        self.n_ranks = check_integer("n_ranks", n_ranks, 1)
        self.epoch = epoch
        self.dirty = [False] * self.n_ranks
        self.launched = False
        self.terminated = False
        #: Total token forwards (protocol-cost statistic).
        self.hops = 0
        #: Simulated time the token was last launched or handled.
        self.last_seen = 0.0

    @property
    def token_tag(self):
        return TOKEN_TAG if self.epoch is None else (TOKEN_TAG, self.epoch)

    @property
    def terminate_tag(self):
        return TERMINATE_TAG if self.epoch is None else (TERMINATE_TAG, self.epoch)

    def mark_dirty(self, rank: int) -> None:
        """Call when ``rank`` gains work (successful steal)."""
        self.dirty[rank] = True

    def next_alive(self, rank: int) -> int:
        """The ring member after ``rank``."""
        return (rank + 1) % self.n_ranks

    def lowest_alive(self) -> int:
        """The rank that launches the token."""
        return 0

    def _work_remains(self) -> bool:
        return False

    def maybe_launch(self, ctx: RankContext):
        """The launcher launches the token on first idleness (generator)."""
        if not self.launched and self.n_ranks > 1 and ctx.rank == self.lowest_alive():
            self.launched = True
            self.last_seen = ctx.now
            yield from ctx.send(self.next_alive(ctx.rank), self.token_tag, 0)
            self.hops += 1

    def handle_token(self, ctx: RankContext, count: int):
        """Process a received token while idle with an empty queue.

        Returns True if this rank declared termination (generator return
        value; drive with ``yield from``).
        """
        rank = ctx.rank
        self.last_seen = ctx.now
        if self.dirty[rank] or self._work_remains():
            count = 0
            self.dirty[rank] = False
        else:
            count += 1
        if count >= 2 * self.n_ranks and not self._work_remains():
            self.terminated = True
            yield from self.broadcast_terminate(ctx)
            return True
        yield from ctx.send(self.next_alive(rank), self.token_tag, count)
        self.hops += 1
        return False

    def broadcast_terminate(self, ctx: RankContext):
        """Linear terminate broadcast from the declaring rank.

        The declarer pays one software overhead per destination; deliveries
        proceed concurrently. (A tree broadcast would shave the last
        ~P * o_send off the makespan; at the scales studied this is <1%.)
        """
        for other in range(self.n_ranks):
            if other != ctx.rank:
                yield from ctx.send(other, self.terminate_tag, None)


class FaultTolerantTokenRing(TokenRing):
    """Token ring that survives member crashes and lost tokens.

    Three extensions over the plain ring (the "ring healing" of E16):

    - **Healing:** tokens are forwarded to the next rank *not suspected
      dead*, so the ring contracts around crashed members.
    - **Regeneration:** the lowest-numbered live rank reissues the token
      with count 0 when none has been seen for ``token_timeout`` —
      covering tokens lost to message drops or to dying holders. (Launch
      duty likewise falls to the lowest live rank, not rank 0.)
    - **Replay barrier:** a ``work_remains`` callback (queued or orphaned
      in-flight work anywhere) resets the count and gates the declaration,
      so termination can never be declared while crash recovery is
      replaying tasks. Regeneration can put several tokens in flight at
      once, which breaks the classic two-round safety argument on its own;
      the declare-time ``work_remains`` check is what restores safety.

    The clean-hop threshold stays ``2 * n_ranks`` (the original member
    count) — conservative on a contracted ring, never unsafe.
    """

    def __init__(
        self,
        n_ranks: int,
        detector,
        epoch: int | None = None,
        work_remains=None,
        token_timeout: float = 1.0e-3,
    ) -> None:
        super().__init__(n_ranks, epoch)
        self.detector = detector
        self.work_remains = work_remains
        check_positive("token_timeout", token_timeout)
        self.token_timeout = float(token_timeout)
        #: Tokens reissued after a timeout (observability counter).
        self.regenerations = 0

    # ------------------------------------------------------------------
    def next_alive(self, rank: int) -> int:
        """Next ring member after ``rank`` not suspected dead."""
        for k in range(1, self.n_ranks + 1):
            cand = (rank + k) % self.n_ranks
            if not self.detector.is_suspected(cand):
                return cand
        return rank

    def lowest_alive(self) -> int:
        for rank in range(self.n_ranks):
            if not self.detector.is_suspected(rank):
                return rank
        return 0

    def _work_remains(self) -> bool:
        return self.work_remains is not None and bool(self.work_remains())

    # ------------------------------------------------------------------
    def maybe_regenerate(self, ctx: RankContext):
        """Reissue the token if it has been silent too long (generator)."""
        if (
            self.launched
            and not self.terminated
            and ctx.rank == self.lowest_alive()
            and ctx.now - self.last_seen > self.token_timeout
        ):
            self.last_seen = ctx.now
            self.regenerations += 1
            yield from ctx.send(self.next_alive(ctx.rank), self.token_tag, 0)
            self.hops += 1
