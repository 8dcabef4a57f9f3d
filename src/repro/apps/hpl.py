"""High-Performance LINPACK (Dongarra et al.) — the TOP500 benchmark.

Two modes over the same algorithm (right-looking block LU with partial
pivoting, 1D block-cyclic column distribution):

* **functional** — real NumPy panels flow between ranks through the
  simulated MPI; the factorisation is verified against
  ``numpy.linalg.solve`` by the test suite.  (1D column distribution is
  HPL-simplified but preserves the compute/communication structure:
  panel factorisation -> panel broadcast -> trailing update.)
* **model** — the same message/compute schedule with synthetic payloads,
  fast enough for the 96-node weak-scaling sweep of Figure 6 and the
  97 GFLOPS / 51% / 120 MFLOPS/W headline (Section 4).

Weak scaling sizes the matrix to a fixed fraction of each node's memory,
exactly how HPL is run in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from repro.apps.base import Application, AppRunResult
from repro.cluster.cluster import Cluster
from repro.mpi import schedule
from repro.mpi.api import RankContext, SyntheticPayload
from repro.mpi.collectives import bcast, gather


@dataclass(frozen=True)
class HPLConfig:
    """Problem configuration.

    :param n: global matrix order.
    :param nb: panel (block) width.
    """

    n: int
    nb: int = 128

    def __post_init__(self) -> None:
        if self.n <= 0 or self.nb <= 0:
            raise ValueError("n and nb must be positive")
        if self.nb > self.n:
            raise ValueError("block cannot exceed the matrix")

    @property
    def n_panels(self) -> int:
        return -(-self.n // self.nb)

    @property
    def total_flops(self) -> float:
        """The canonical HPL FLOP count ``2/3 n^3 + 2 n^2``."""
        return 2.0 * self.n**3 / 3.0 + 2.0 * self.n**2


def _owner(panel: int, p: int) -> int:
    """Block-cyclic owner of a column panel."""
    return panel % p


def _local_panels(rank: int, p: int, n_panels: int) -> list[int]:
    return [j for j in range(n_panels) if _owner(j, p) == rank]


def _trailing_table(rank: int, p: int, cfg: HPLConfig) -> list[int]:
    """``table[k + 1]`` is the total column width of this rank's local
    panels strictly right of panel ``k`` — the per-step trailing-update
    extent.  Integer suffix sums, so each entry equals the naive
    ``sum(min(nb, n - j*nb) for local j > k)`` exactly; precomputing the
    table turns the per-panel rescan quadratic in ``n_panels`` into a
    single linear pass per rank."""
    n, nb = cfg.n, cfg.nb
    table = [0] * (cfg.n_panels + 1)
    for j in range(cfg.n_panels - 1, -1, -1):
        width = min(nb, n - j * nb) if _owner(j, p) == rank else 0
        table[j] = table[j + 1] + width
    return table


# ---------------------------------------------------------------------------
# Model mode: synthetic payloads, exact message/compute schedule.
# ---------------------------------------------------------------------------

def _model_rank(ctx: RankContext, cfg: HPLConfig) -> Generator:
    p = ctx.size
    nb = cfg.nb
    trailing = _trailing_table(ctx.rank, p, cfg)
    for k in range(cfg.n_panels):
        rows = cfg.n - k * nb
        cur_nb = min(nb, rows)
        owner = _owner(k, p)
        # Panel factorisation on the owner: ~ rows * nb^2 FLOPs.
        if ctx.rank == owner:
            yield ctx.compute_flops(rows * cur_nb * cur_nb)
        # Broadcast the factored panel (L + pivots) to everyone.
        payload = SyntheticPayload(rows * cur_nb * 8 + cur_nb * 4)
        yield from bcast(ctx, payload, root=owner, tag=k % 16)
        # Trailing update on the local column panels right of k.
        my_trailing = trailing[k + 1]
        if my_trailing:
            # TRSM + GEMM: ~ 2 * rows * nb * local_trailing_cols FLOPs.
            yield ctx.compute_flops(2.0 * rows * cur_nb * my_trailing)
    return ctx.now


def _model_rank_lookahead(ctx: RankContext, cfg: HPLConfig) -> Generator:
    """Model mode with depth-1 lookahead (communication/computation
    overlap): the broadcast of panel k+1 proceeds concurrently with the
    trailing update for panel k.

    This is the latency-hiding behaviour Section 6.3 says "can be
    alleviated ... using latency-hiding programming techniques and
    runtimes [10]" (OmpSs) — and what tuned HPL does with its lookahead
    parameter.  The panel pipeline is spawned as a concurrent simulated
    process per panel; a rank therefore overlaps its own update with the
    next panel's factorisation/broadcast (slightly optimistic about core
    contention, which is what a task runtime approximates anyway).
    """
    engine = ctx.world.engine
    p = ctx.size
    nb = cfg.nb

    def panel_pipeline(k: int) -> Generator:
        rows = cfg.n - k * nb
        cur_nb = min(nb, rows)
        owner = _owner(k, p)
        if ctx.rank == owner:
            yield ctx.compute_flops(rows * cur_nb * cur_nb)
        payload = SyntheticPayload(rows * cur_nb * 8 + cur_nb * 4)
        yield from bcast(ctx, payload, root=owner, tag=k % 64)
        return None

    current = engine.process(panel_pipeline(0), name=f"panel0.{ctx.rank}")
    trailing = _trailing_table(ctx.rank, p, cfg)
    for k in range(cfg.n_panels):
        yield current  # panel k factored and received everywhere
        if k + 1 < cfg.n_panels:
            current = engine.process(
                panel_pipeline(k + 1), name=f"panel{k + 1}.{ctx.rank}"
            )
        rows = cfg.n - k * nb
        cur_nb = min(nb, rows)
        my_trailing = trailing[k + 1]
        if my_trailing:
            yield ctx.compute_flops(2.0 * rows * cur_nb * my_trailing)
    return ctx.now


def _model_schedule(cfg: HPLConfig, clocks: schedule.Clocks) -> None:
    """Event-free mirror of :func:`_model_rank` (see
    :mod:`repro.mpi.schedule` for the bit-identity contract), one fused
    pass per panel.

    Panel ``k``'s broadcast visits every rank once, parents before
    children; at its visit a rank applies the trailing update it still
    owes for panel ``k - 1``, factorises the panel (owner only),
    receives, and sends to its children.  That is each rank's own
    program order, and ranks share nothing but arrivals, so only the
    interleaving across ranks differs from the engine's.  The last
    panel leaves no update owed: no panel lies right of it.
    """
    nb, n, size = cfg.nb, cfg.n, clocks.size
    now, stats = clocks.now, clocks.stats
    rate = [g * 1e9 for g in clocks.gflops]
    trees = schedule.BcastTrees(clocks)
    # Per-rank float totals, written back to the stats once at the end.
    comp = [st.compute_s for st in stats]
    wait = [st.comm_wait_s for st in stats]
    # root -> [panels broadcast from it, their total bytes]
    sent_from: dict[int, list[int]] = {}
    # remaining[r]: the width of rank r's local panels right of the
    # last panel factorised (what _trailing_table tabulates).
    remaining = [0] * size
    for j in range(cfg.n_panels):
        remaining[_owner(j, size)] += min(nb, n - j * nb)
    arrival = [0.0] * size
    update = 0.0  # 2 * rows * nb of the previous panel; 0.0 before panel 0
    for k in range(cfg.n_panels):
        rows = n - k * nb
        cur_nb = min(nb, rows)
        owner = _owner(k, size)
        nbytes = rows * cur_nb * 8 + cur_nb * 4
        occ, xfer = clocks.prices(nbytes)
        totals = sent_from.setdefault(owner, [0, 0])
        totals[0] += 1
        totals[1] += nbytes
        for r, children in trees.tree(owner):
            t = now[r]
            if update and remaining[r]:
                d = update * remaining[r] / rate[r]
                comp[r] += d
                t += d
            if r == owner:
                remaining[r] -= cur_nb
                d = rows * cur_nb * cur_nb / rate[r]
                comp[r] += d
                t += d
            elif arrival[r] > t:
                wait[r] += arrival[r] - t
                t = arrival[r]
            for dst, c in children:
                arrival[dst] = t + xfer[c]
                t += occ[c]
            now[r] = t
        update = 2.0 * rows * cur_nb
    for r, st in enumerate(stats):
        st.compute_s = comp[r]
        st.comm_wait_s = wait[r]
    # Every panel sends one message down each edge of its root's tree.
    for root, (panels, nbytes) in sent_from.items():
        for r, children in trees.tree(root):
            stats[r].messages_sent += panels * len(children)
            stats[r].bytes_sent += nbytes * len(children)


# ---------------------------------------------------------------------------
# Functional mode: real numerics.
# ---------------------------------------------------------------------------

def _functional_rank(ctx: RankContext, cfg: HPLConfig, seed: int) -> Generator:
    """Distributed LU with partial pivoting on real data.

    Each rank owns the column panels ``j`` with ``j % p == rank`` (full
    column height).  Returns ``(local_panels, pivots)`` where pivots is
    the global row-swap sequence (only meaningful on completion).
    """
    p = ctx.size
    n, nb = cfg.n, cfg.nb
    rng = np.random.default_rng(seed)
    full = rng.standard_normal((n, n))  # general: exercises pivoting
    mine = {j: full[:, j * nb : min((j + 1) * nb, n)].copy()
            for j in _local_panels(ctx.rank, p, cfg.n_panels)}
    pivots: list[int] = []

    for k in range(cfg.n_panels):
        k0 = k * nb
        cur_nb = min(nb, n - k0)
        owner = _owner(k, p)
        if ctx.rank == owner:
            panel = mine[k]
            piv_k = []
            for col in range(cur_nb):
                g = k0 + col
                r = g + int(np.argmax(np.abs(panel[g:, col])))
                piv_k.append(r)
                if r != g:
                    panel[[g, r], :] = panel[[r, g], :]
                pivot = panel[g, col]
                panel[g + 1 :, col] /= pivot
                if col + 1 < cur_nb:
                    panel[g + 1 :, col + 1 :] -= np.outer(
                        panel[g + 1 :, col], panel[g, col + 1 :]
                    )
            yield ctx.compute_flops((n - k0) * cur_nb * cur_nb)
            packet = (np.array(piv_k), panel[k0:, :].copy())
        else:
            packet = None
        piv_k, lpanel = yield from bcast(ctx, packet, root=owner, tag=k % 16)
        pivots.extend(int(r) for r in piv_k)

        # Apply the panel's row swaps to every local column block —
        # including the already-factored ones to the LEFT of the panel
        # (LAPACK laswp semantics: L must see the same row order) —
        # then update the trailing blocks.
        tri = lpanel[:cur_nb, :]  # unit-lower L11 (with U11 above diag)
        l21 = lpanel[cur_nb:, :]  # L21
        updated = 0.0
        for j, block in mine.items():
            if j != k:  # the owner's panel swapped itself in-place
                for c, r in enumerate(piv_k):
                    g = k0 + c
                    if r != g:
                        block[[g, r], :] = block[[r, g], :]
            if j <= k:
                continue
            a12 = block[k0 : k0 + cur_nb, :]
            # U12 = L11^{-1} A12 (unit lower triangular solve).
            for c in range(cur_nb):
                a12[c + 1 :, :] -= np.outer(tri[c + 1 :cur_nb, c], a12[c, :])
            if l21.shape[0]:
                block[k0 + cur_nb :, :] -= l21 @ a12
            updated += block.shape[1]
        if updated:
            yield ctx.compute_flops(2.0 * (n - k0) * cur_nb * updated)

    gathered = yield from gather(ctx, mine, root=0)
    if ctx.rank != 0:
        return None
    lu = np.empty((n, n))
    for part in gathered:
        for j, block in part.items():
            lu[:, j * nb : j * nb + block.shape[1]] = block
    return lu, np.array(pivots)


def rank_program(
    functional: bool = False,
    lookahead: bool = False,
    grid_2d: bool = False,
):
    """The raw rank generator for a given HPL mode — the hook used by
    harnesses that drive the ranks themselves rather than through
    :meth:`HPL.simulate` (the fault-tolerant
    :class:`~repro.fault.runner.ResilientRunner` in particular).

    Call as ``world.run(rank_program(...), cfg[, seed])`` — functional
    mode takes ``(cfg, seed)``, the model modes take ``(cfg,)``.
    """
    if functional:
        return _functional_rank
    if grid_2d:
        return _model_rank_2d
    if lookahead:
        return _model_rank_lookahead
    return _model_rank


def hpl_solve_from_factors(
    lu: np.ndarray, pivots: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Solve ``A x = b`` from the distributed factorisation output."""
    n = lu.shape[0]
    x = b.astype(float).copy()
    for i, r in enumerate(pivots):
        if r != i:
            x[[i, r]] = x[[r, i]]
    for i in range(1, n):  # forward substitution, unit lower
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):  # back substitution
        x[i] = (x[i] - lu[i, i + 1 :] @ x[i + 1 :]) / lu[i, i]
    return x


class HPL(Application):
    name = "HPL"
    description = "High-Performance LINPACK"
    scaling = "weak"

    #: Fraction of usable node memory given to the matrix.
    MEMORY_FILL = 0.60

    def min_nodes(self, cluster: Cluster) -> int:
        return 1

    def weak_n(self, cluster: Cluster, n_nodes: int) -> int:
        """Matrix order filling ``MEMORY_FILL`` of aggregate memory."""
        per_node = cluster.nodes[0].usable_memory_bytes() * self.MEMORY_FILL
        n = int(math.sqrt(n_nodes * per_node / 8.0))
        return max(256, (n // 128) * 128)

    def simulate(
        self,
        cluster: Cluster,
        n_nodes: int,
        n: int | None = None,
        nb: int = 128,
        functional: bool = False,
        lookahead: bool = False,
        grid_2d: bool = False,
        seed: int = 0,
        **_: Any,
    ) -> AppRunResult:
        cfg = HPLConfig(
            n=self.weak_n(cluster, n_nodes) if n is None else n, nb=nb
        )
        program = rank_program(functional, lookahead, grid_2d)
        # Only the plain 1D model has an event-free schedule.
        return self.run_model(
            cluster, n_nodes, "dgemm", program,
            (cfg, seed) if functional else (cfg,),
            _model_schedule if program is _model_rank else None,
            flops=cfg.total_flops, steps=cfg.n_panels,
        )

    def factorise(
        self, cluster: Cluster, n_nodes: int, n: int, nb: int = 32, seed: int = 0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Functional run returning ``(A, LU, pivots)`` for verification."""
        cfg = HPLConfig(n=n, nb=nb)
        world = cluster.subcluster(n_nodes).make_world(workload="dgemm")
        result = world.run(_functional_rank, cfg, seed)
        lu, pivots = result.results[0]
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        return a, lu, pivots

    def efficiency(self, cluster: Cluster, result: AppRunResult) -> float:
        """Achieved GFLOPS over peak of the nodes used."""
        peak = sum(
            node.peak_gflops() for node in cluster.nodes[: result.n_nodes]
        )
        return result.gflops / peak

    def strong_scaling_study(
        self,
        cluster: Cluster,
        node_counts: tuple[int, ...] = (4, 8, 16, 32),
        memory_nodes: int = 1,
        nb: int = 128,
    ) -> dict[int, float]:
        """Strong-scaling speed-up curve with a FIXED matrix sized to the
        memory of ``memory_nodes`` nodes — the paper's earlier experiment
        [35] ("input sets that fit in the memory of one to four nodes";
        "the bigger the input set the better the scalability").

        Returns node count -> speed-up relative to the smallest count.
        """
        if memory_nodes <= 0:
            raise ValueError("memory_nodes must be positive")
        n = self.weak_n(cluster, memory_nodes)
        times = {
            p: self.simulate(cluster, p, n=n, nb=nb).time_s
            for p in node_counts
        }
        base = min(times)
        return {p: base * times[base] / t for p, t in times.items()}


# ---------------------------------------------------------------------------
# 2D block-cyclic model (the production-HPL process grid).
# ---------------------------------------------------------------------------

def _grid_shape(p: int) -> tuple[int, int]:
    """Most-square P x Q factorisation with P <= Q (HPL's guidance)."""
    best = (1, p)
    for rows in range(1, int(math.isqrt(p)) + 1):
        if p % rows == 0:
            best = (rows, p // rows)
    return best


def _model_rank_2d(ctx: RankContext, cfg: HPLConfig) -> Generator:
    """Model mode on a P x Q process grid (2D block-cyclic), the layout
    production HPL uses.  Versus the 1D column layout it (a) splits the
    panel factorisation across P row-ranks, (b) shrinks every broadcast
    payload by the grid factor, and (c) balances the trailing update in
    both dimensions — removing exactly the serialisation the A5 ablation
    exposes in the 1D model.

    Communicators are emulated with rank arithmetic: rank = pr * Q + pc.
    """
    size = ctx.size
    P, Q = _grid_shape(size)
    pr, pc = divmod(ctx.rank, Q)
    nb = cfg.nb
    n_panels = cfg.n_panels

    for k in range(n_panels):
        rows = cfg.n - k * nb
        cur_nb = min(nb, rows)
        owner_col = k % Q
        owner_row = k % P
        my_rows = rows / P  # block-cyclic share of the trailing rows
        tag = 128 + (k % 32)

        # (a) Panel factorisation: the owner COLUMN factorises together;
        # each of its P ranks holds rows/P of the panel and they exchange
        # pivot candidates per column (modelled as one small allreduce-
        # like exchange along the column + local work).
        if pc == owner_col:
            yield ctx.compute_flops(my_rows * cur_nb * cur_nb)
            if P > 1:
                # pivot search exchange along the column (ring of P).
                up = (pr - 1) % P * Q + pc
                down = (pr + 1) % P * Q + pc
                pivot_msgs = SyntheticPayload(cur_nb * 16)
                yield from ctx.exchange(
                    [(down, pivot_msgs, tag)], [(up, tag)]
                )

        # (b) Broadcast the panel along each process ROW (root: owner
        # column member of that row).  Payload: my_rows x nb.
        panel_bytes = int(my_rows * cur_nb * 8) + cur_nb * 4
        yield from _row_bcast(
            ctx, P, Q, pr, pc, owner_col, SyntheticPayload(panel_bytes),
            tag + 32,
        )

        # (c) U broadcast along each process COLUMN (root: owner row),
        # payload: nb x local trailing cols.
        local_cols = (cfg.n - (k + 1) * nb) / Q
        if local_cols > 0:
            u_bytes = int(cur_nb * local_cols * 8)
            yield from _col_bcast(
                ctx, P, Q, pr, pc, owner_row, SyntheticPayload(u_bytes),
                tag + 64,
            )
            # Trailing update: each rank owns my_rows x local_cols.
            yield ctx.compute_flops(2.0 * my_rows * cur_nb * local_cols)
    return ctx.now


def _row_bcast(ctx, P, Q, pr, pc, root_col, payload, tag):
    """Binomial broadcast within this rank's process row."""
    if Q == 1:
        return
    vr = (pc - root_col) % Q
    if vr != 0:
        recv_mask = 1
        while recv_mask * 2 <= vr:
            recv_mask <<= 1
        src_pc = (vr - recv_mask + root_col) % Q
        yield from ctx.recv(pr * Q + src_pc, tag)
        mask = recv_mask << 1
    else:
        mask = 1
    while mask < Q:
        if vr < mask and vr + mask < Q:
            dst_pc = (vr + mask + root_col) % Q
            yield from ctx.send(pr * Q + dst_pc, payload, tag)
        mask <<= 1


def _col_bcast(ctx, P, Q, pr, pc, root_row, payload, tag):
    """Binomial broadcast within this rank's process column."""
    if P == 1:
        return
    vr = (pr - root_row) % P
    if vr != 0:
        recv_mask = 1
        while recv_mask * 2 <= vr:
            recv_mask <<= 1
        src_pr = (vr - recv_mask + root_row) % P
        yield from ctx.recv(src_pr * Q + pc, tag)
        mask = recv_mask << 1
    else:
        mask = 1
    while mask < P:
        if vr < mask and vr + mask < P:
            dst_pr = (vr + mask + root_row) % P
            yield from ctx.send(dst_pr * Q + pc, payload, tag)
        mask <<= 1
