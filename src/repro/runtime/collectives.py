"""Simulated collective operations over the two-sided message layer.

SCF iterations are separated by machine-wide synchronization (Fock
reduction, density broadcast, convergence check); these collectives model
that cost. All are log-depth algorithms built from the network's active
messages, so their latencies emerge from the same LogGP model as
everything else:

- :func:`barrier` — dissemination barrier, ``ceil(log2 P)`` rounds, any P.
- :func:`reduce` / :func:`broadcast` — binomial trees rooted at 0.
- :func:`allreduce` — reduce + broadcast (payload reduced at each merge).

Every rank must drive the *same* collective with the same ``epoch`` tag;
epochs keep back-to-back collectives from stealing each other's messages.
"""

from __future__ import annotations

from repro.runtime.comm import RankContext
from repro.util import ConfigurationError, check_positive


def _check_world(ctx: RankContext, n_ranks: int) -> None:
    check_positive("n_ranks", n_ranks)
    if not 0 <= ctx.rank < n_ranks:
        raise ConfigurationError(f"rank {ctx.rank} outside world of {n_ranks}")


def barrier(ctx: RankContext, n_ranks: int, epoch: int = 0):
    """Dissemination barrier: round k pairs rank r with r +- 2^k."""
    _check_world(ctx, n_ranks)
    if n_ranks == 1:
        yield from ctx.sleep(0.0)
        return
    round_no = 0
    distance = 1
    while distance < n_ranks:
        peer_to = (ctx.rank + distance) % n_ranks
        peer_from = (ctx.rank - distance) % n_ranks
        tag = ("barrier", epoch, round_no)
        yield from ctx.send(peer_to, tag)
        yield from ctx.recv(tag)
        # distinct-source check is implicit: only peer_from sends this tag
        # to us in this round (all ranks run the same schedule).
        del peer_from
        distance *= 2
        round_no += 1


def _tree_children(rank: int, n_ranks: int) -> list[int]:
    """Children of ``rank`` in the binomial tree rooted at 0."""
    children = []
    bit = 1
    # rank owns children rank|bit for bits above its lowest set bit.
    while True:
        child = rank | bit
        if rank & bit:
            break
        if child != rank and child < n_ranks:
            children.append(child)
        bit <<= 1
        if bit >= n_ranks:
            break
    return children


def _tree_parent(rank: int) -> int:
    """Parent of ``rank`` in the binomial tree rooted at 0."""
    return rank & (rank - 1)


def reduce(ctx: RankContext, n_ranks: int, nbytes: int, epoch: int = 0):
    """Binomial-tree reduction to rank 0; payload of ``nbytes`` per link.

    Merging two contributions costs ``nbytes / accumulate_bandwidth`` of
    local compute at the receiving rank (traced as overhead).
    """
    _check_world(ctx, n_ranks)
    if n_ranks == 1:
        yield from ctx.sleep(0.0)
        return
    model = ctx.network.model
    merge_time = nbytes / model.accumulate_bandwidth
    for child in sorted(_tree_children(ctx.rank, n_ranks), reverse=True):
        yield from ctx.recv(("reduce", epoch, child))
        yield from ctx.overhead_delay(merge_time)
    if ctx.rank != 0:
        yield from ctx.send(
            _tree_parent(ctx.rank), ("reduce", epoch, ctx.rank), nbytes=nbytes
        )


def broadcast(ctx: RankContext, n_ranks: int, nbytes: int, epoch: int = 0):
    """Binomial-tree broadcast from rank 0."""
    _check_world(ctx, n_ranks)
    if n_ranks == 1:
        yield from ctx.sleep(0.0)
        return
    if ctx.rank != 0:
        yield from ctx.recv(("bcast", epoch, ctx.rank))
    # Forward to children from the largest subtree down so the deepest
    # branches start earliest.
    for child in sorted(_tree_children(ctx.rank, n_ranks), reverse=True):
        yield from ctx.send(child, ("bcast", epoch, child), nbytes=nbytes)


def allreduce(ctx: RankContext, n_ranks: int, nbytes: int, epoch: int = 0):
    """Reduce-to-0 then broadcast (2 log P depth, any P)."""
    yield from reduce(ctx, n_ranks, nbytes, epoch)
    yield from broadcast(ctx, n_ranks, nbytes, epoch)
