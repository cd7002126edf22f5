"""The vectorised execution engine of the MAC array.

This engine computes, for a convolution or fully-connected layer, exactly
the accumulator values the hardware MAC array would produce — including the
effect of fault injection at individual multipliers — but it does so with
numpy linear algebra instead of looping over cycles.

Lane mapping
------------
The compiler tiles a convolution onto the array in NVDLA fashion: input
channels are processed in groups of ``atomic_c`` and output channels in
groups of ``atomic_k``.  Inside a group, input channel ``ic`` is assigned to
multiplier lane ``ic % atomic_c`` and output channel ``oc`` to MAC unit
``oc % atomic_k``.  A persistent fault at multiplier ``(k, m)`` therefore
corrupts every product of the form

    activation[ic] * weight[oc, ic, ky, kx]    with ic % atomic_c == m,
                                                    oc % atomic_k == k,

for every kernel position and output pixel — plus the products of *padding
lanes* (channel groups padded with zeros when the channel count is not a
multiple of ``atomic_c``), because those multipliers still cycle in hardware
and a persistent override replaces their zero products too.

Fault arithmetic
----------------
For value-independent models (stuck-at, constant) the faulty accumulator is
obtained from the clean one by subtracting the true contribution of the
affected products and adding ``constant * number_of_affected_products``.
For value-dependent models (bit flips, transient pulses) the affected
products are materialised, transformed by the model and re-summed.  Both
paths are validated against the scalar reference engine in the test suite.

When a layer's accumulator is *recomputed* (its input diverged from the
clean tape, or a weight-surface fault makes it non-reusable) and every armed
fault is a constant product override, the same identity is applied before
the GEMM instead of after it: the affected ``(output channel, im2col row)``
weights are zeroed in a copy of the weight matrix and ``constant * terms``
is added per output channel, so one GEMM replaces the clean GEMM plus one
gathered GEMM per site.  Layers served from the tape, and every other fault
model, keep the per-site correction path.

Fast math
---------
The clean accumulator is computed by the shared exact integer GEMM core
(:mod:`repro.runtime.gemm`): im2col keeps the int8 patches narrow all the
way to the GEMM boundary and the contraction runs on BLAS float kernels
whose exactness is certified by an overflow bound — bit-identical to the
original int64 einsum, several times faster.

Because ``faulty = clean + correction``, a campaign that re-evaluates the
same frozen image batch under many injection configurations needs each
clean GEMM only once: the accelerator's :class:`CleanForwardTape` records
every layer's cols and clean accumulator during the fault-free baseline
pass, and a trial whose input to a layer is still the clean one pays only
the correction terms there.

A recomputed layer whose cols nothing reads after the GEMM (faults folded,
or no datapath fault) streams ``im2col -> GEMM`` over image blocks whose
float32 column block fits in L2 (:data:`STREAM_BLOCK_BYTES`), writing into
one int64 accumulator, so the whole ``(N, rows, positions)`` column buffer
and its float copy are never materialised.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from repro.accelerator.geometry import ArrayGeometry, PAPER_GEOMETRY
from repro.accelerator.tape import CleanForwardTape, TapeOpEntry, TapeSegment, arrays_match
from repro.faults.injector import InjectionConfig
from repro.faults.models import FaultModel, flip_int8_bytes
from repro.faults.sites import FaultSite
from repro.nn.functional import conv_output_size, im2col
from repro.quant.qlayers import QConv, QLinear
from repro.runtime.gemm import exact_matmul
from repro.utils.bitops import ACCUMULATOR_WIDTH, saturate
from repro.utils.profiling import PROFILER

#: Float32 bytes of im2col columns per stream block of a recomputed GEMM,
#: sized to a core's L2 cache.  On a 2 MiB-L2 Xeon the per-layer cost of the
#: ResNet-18 (width 0.25, 64 images) convs was flat from 0.5 to 16 MiB; what
#: the streaming saves is the batch-sized column buffer and its float copy.
STREAM_BLOCK_BYTES = 2 << 20


def config_fusable(config: InjectionConfig) -> bool:
    """True when a configuration can join a fused multi-trial evaluation.

    Fused evaluation computes several trials' correction terms inside one
    engine pass, so every armed model must be a pure function of its inputs
    (and, for cycle-dependent models, of the schedule's cycle indices).
    Models that consume the engine's RNG stream (``rng_free = False``, e.g.
    :class:`~repro.faults.models.TransientPulse`) would observe a different
    draw order under fusion; such trials are evaluated one at a time.
    Memory-resident models are likewise excluded: they corrupt the staged
    operand bytes (weights, activations, input DMA) that a fused pass shares
    across all trials of the group.
    """
    return all(
        getattr(model, "rng_free", False) and model.stage != "memory"
        for model in config.faults.values()
    )


class CleanAccumulatorCache:
    """LRU cache of clean per-layer GEMM results, keyed by input content.

    A key is ``(layer name, input shape, SHA-1 of the input bytes)``: two
    calls reuse an entry only when the layer sees byte-identical input, so
    cached campaigns are bit-identical to uncached ones by construction.
    Entries hold the (narrow-dtype) im2col buffer and the clean int64
    accumulator; neither is ever mutated by the engine (fault corrections
    copy before writing), so entries can be shared freely across trials.

    During a campaign only the *clean* activations recur: a fault perturbs
    every layer downstream of it, so trial-time inputs of deeper layers are
    one-shot and caching them would just pin dead memory and churn the LRU.
    The platform therefore primes the cache during the fault-free baseline
    pass and then :meth:`freeze`\\ s it — frozen lookups still hit, but
    misses no longer insert.

    Capacity is bounded both by entry count and by payload bytes
    (``max_bytes``, default 256 MB): a full-width model primes one entry of
    tens of MB per (layer, batch chunk), so an entry cap alone could pin
    GBs.  When the baseline pass primes more than fits, the LRU keeps the
    most recently primed chunks and trials hit only on those — the cache
    degrades to partial reuse, never to unbounded memory.
    """

    #: Default ceiling on cached payload bytes (cols + accumulators).
    DEFAULT_MAX_BYTES = 256 << 20

    def __init__(self, max_entries: int = 128, max_bytes: int | None = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1 (use cache=None to disable)")
        self.max_entries = max_entries
        #: Byte budget across all entries; at paper scale a single entry of
        #: the full-width model is tens of MB, so an entry count alone would
        #: let the cache pin GBs.  ``None`` disables the byte bound.
        self.max_bytes = self.DEFAULT_MAX_BYTES if max_bytes is None else max_bytes
        self._entries: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        #: When True, misses do not insert (reads still hit).
        self.frozen = False

    def key(self, name: str, x: np.ndarray) -> tuple:
        digest = hashlib.sha1(x.tobytes()).digest()
        return (name, x.shape, digest)

    def get(self, key: tuple) -> tuple[np.ndarray, np.ndarray] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def _evict_oldest(self) -> None:
        _, (cols, acc) = self._entries.popitem(last=False)
        self._bytes -= cols.nbytes + acc.nbytes

    def put(self, key: tuple, cols: np.ndarray, acc: np.ndarray) -> None:
        if self.frozen:
            return
        entry_bytes = cols.nbytes + acc.nbytes
        if self.max_bytes is not None and entry_bytes > self.max_bytes:
            return  # a single over-budget payload would evict everything else
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._bytes -= previous[0].nbytes + previous[1].nbytes
        self._entries[key] = (cols, acc)
        self._bytes += entry_bytes
        while len(self._entries) > self.max_entries:
            self._evict_oldest()
        if self.max_bytes is not None:
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                self._evict_oldest()

    def freeze(self) -> None:
        """Stop inserting on miss (campaign trials only ever *reuse*)."""
        self.frozen = True

    def thaw(self) -> None:
        """Allow inserts again (the fault-free baseline pass primes here)."""
        self.frozen = False

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Payload bytes currently held (cols + accumulators)."""
        return self._bytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int | float]:
        return {
            "entries": len(self),
            "bytes": self._bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "frozen": self.frozen,
        }


class VectorisedEngine:
    """Fast lane-accurate engine for conv/FC layers on the MAC array."""

    def __init__(
        self,
        geometry: ArrayGeometry = PAPER_GEOMETRY,
        rng: np.random.Generator | None = None,
        clean_cache: CleanAccumulatorCache | None = None,
        tape: CleanForwardTape | None = None,
    ):
        self.geometry = geometry
        self.rng = rng or np.random.default_rng(0)
        #: Optional clean-accumulator reuse across fault trials (off for a
        #: bare engine; campaigns enable it through the platform config).
        self.clean_cache = clean_cache
        #: Optional clean-activation tape (the delta-propagation engine's
        #: generalisation of the cache); owned by the accelerator.
        self.tape = tape
        #: The tape segment of the batch chunk currently executing, set by
        #: the accelerator around each chunk.
        self.tape_segment: TapeSegment | None = None
        #: True while a chunk-keyed execution is in flight on a tape-armed
        #: platform.  A missing segment then means "tape evicted/unverified
        #: for this chunk" — the layer recomputes directly instead of
        #: falling through to the digest cache, which would SHA-1-hash and
        #: insert one-shot faulty activations on every trial.  Chunk-less
        #: (ad-hoc) executions leave this False and keep using the cache.
        self.tape_chunk_active: bool = False

    # ------------------------------------------------------------------
    # Clean GEMM (shared by conv and FC)
    # ------------------------------------------------------------------
    def _clean_accumulate(
        self, name: str, x_q: np.ndarray, w_mat: np.ndarray, make_cols,
        reusable: bool = True, recompute=None,
    ) -> tuple[np.ndarray | None, np.ndarray, bool]:
        """Return ``(cols, clean acc, acc owned)``, via the tape or cache.

        With a tape segment active the lookup is a pointer-identity check
        against the segment's recorded clean input (byte comparison as a
        backstop) — no content hashing anywhere.  A miss means the trial
        diverged upstream of this layer: the suffix is recomputed directly,
        bypassing the digest cache (hashing a one-shot faulty activation
        would be pure overhead).

        ``reusable = False`` bypasses the tape and the digest cache entirely
        (no lookup, no insert).  Both stores key on the layer *input* and
        assume the layer's weights are the compiled ones; a dwell-active
        weight-surface fault breaks that assumption — a clean input would
        falsely hit the clean accumulator — so such ops always recompute.

        ``recompute`` (a callable returning ``(cols or None, acc)``) replaces
        ``make_cols`` + one GEMM on those recomputing branches — tape miss,
        tape-armed chunk without a segment, non-reusable op — and only
        there; see :meth:`_recompute`.  A ``None`` cols means the returned
        accumulator already carries the configuration's faults.

        The ``owned`` flag tells the caller whether the accumulator is a
        freshly computed buffer it may mutate in place (suffix GEMMs) or a
        shared tape/cache entry that fault corrections must copy first.
        """

        def fresh(stage: str):
            start = PROFILER.tick()
            if recompute is not None:
                cols, acc = recompute()
            else:
                cols = make_cols()
                acc = exact_matmul(w_mat, cols)
            PROFILER.tock(stage, start)
            return cols, acc, True

        if not reusable:
            return fresh("suffix_forward")
        tape = self.tape
        segment = self.tape_segment
        if tape is not None and segment is None and self.tape_chunk_active:
            # Tape-armed chunk whose segment was evicted or failed
            # verification: recompute the layer directly.
            tape.layer_misses += 1
            return fresh("suffix_forward")
        if tape is not None and segment is not None:
            if tape.recording:
                start = PROFILER.tick()
                cols = make_cols()
                acc = exact_matmul(w_mat, cols)
                PROFILER.tock("tape_build", start)
                segment.stash_gemm(name, cols, acc)
                # The stashed buffer becomes tape state the moment the
                # accelerator records the op: treat it as shared already.
                return cols, acc, False
            entry = segment.entry(name)
            if (
                entry is not None
                and entry.acc is not None
                and arrays_match(x_q, entry.inputs[0])
            ):
                tape.layer_hits += 1
                return entry.cols, entry.acc, False
            tape.layer_misses += 1
            return fresh("suffix_forward")
        cache = self.clean_cache
        if cache is None:
            cols = make_cols()
            return cols, exact_matmul(w_mat, cols), True
        key = cache.key(name, x_q)
        entry = cache.get(key)
        if entry is not None:
            return entry[0], entry[1], False
        cols = make_cols()
        acc = exact_matmul(w_mat, cols)
        cache.put(key, cols, acc)
        return cols, acc, False

    # ------------------------------------------------------------------
    # Convolution
    # ------------------------------------------------------------------
    def _staged_operands(
        self,
        x_q: np.ndarray,
        weight: np.ndarray,
        config: InjectionConfig,
        exec_index: int,
    ) -> tuple[np.ndarray, np.ndarray, InjectionConfig, bool]:
        """Apply dwell-active memory faults to the staged operand tensors.

        Returns ``(x_q, weight, datapath config, reusable)``: the (possibly
        corrupted) activation and weight tensors the GEMM must read, the
        configuration stripped of its memory faults, and whether the clean
        tape/cache may serve this op (False once the weights differ from the
        compiled ones).  Corruption is the vectorised path — an XOR on a
        uint8 view of a copy — mirroring the scalar reference engine's
        per-byte staging corruption.
        """
        if not config.enabled:
            return x_q, weight, config, True
        weight_flips, activation_flips = config.active_memory_flips(exec_index)
        datapath = config.datapath_config()
        reusable = True
        if weight_flips:
            weight = flip_int8_bytes(weight, weight_flips, per_sample=False)
            reusable = False
        if activation_flips:
            x_q = flip_int8_bytes(x_q, activation_flips, per_sample=True)
        return x_q, weight, datapath, reusable

    def conv_accumulate(
        self,
        x_q: np.ndarray,
        node: QConv,
        config: InjectionConfig | None = None,
        exec_index: int = 0,
    ) -> np.ndarray:
        """Raw accumulator of a convolution (no bias / requant), int64 NCHW.

        ``exec_index`` is the op's per-inference GEMM execution index — the
        clock that memory-resident faults' dwell windows are defined on.
        """
        if x_q.dtype != np.int8:
            raise TypeError(f"expected int8 activations, got {x_q.dtype}")
        config = config or InjectionConfig.fault_free()
        x_q, weight, config, reusable = self._staged_operands(
            x_q, node.weight, config, exec_index
        )
        n, ic, h, w = x_q.shape
        oc, ic_w, k, _ = weight.shape
        if ic != ic_w:
            raise ValueError(f"{node.name}: input channels {ic} != weight channels {ic_w}")
        out_h = conv_output_size(h, k, node.stride, node.padding)
        out_w = conv_output_size(w, k, node.stride, node.padding)

        w_mat = weight.reshape(oc, -1)  # int8, (OC, IC*K*K)

        def cols_of(x: np.ndarray) -> np.ndarray:
            # int8 patches, (N, IC*K*K, P) — narrow until the GEMM boundary
            return im2col(x, k, node.stride, node.padding)

        cols, acc, owned = self._clean_accumulate(
            node.name,
            x_q,
            w_mat,
            lambda: cols_of(x_q),
            reusable=reusable,
            recompute=lambda: self._recompute(
                x_q, w_mat, cols_of, out_h * out_w, ic, k * k, config
            ),
        )

        if config.enabled and cols is not None:
            acc = self._apply_faults_conv(acc, cols, w_mat, node, config, owned)
            owned = True

        acc = self._saturated(acc, owned)
        return acc.reshape(n, oc, out_h, out_w)

    def _recompute(
        self,
        x_q: np.ndarray,
        w_mat: np.ndarray,
        cols_of,
        positions: int,
        in_channels: int,
        kernel_elems: int,
        config: InjectionConfig,
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """``(cols, acc)`` of a conv/FC layer that is not served by the tape.

        With every armed fault a constant product override the faults are
        folded into the weights (:meth:`_fold_constants`) and the GEMM is
        streamed; with no datapath fault the clean GEMM is streamed.  Either
        way nothing needs the cols afterwards, so ``(None, faulty acc)`` is
        returned.  Any other configuration materialises the cols for the
        per-site corrections and returns ``(cols, clean acc)``.
        """
        offset = None
        if config.enabled:
            folded = self._fold_constants(w_mat, in_channels, kernel_elems, config)
            if folded is None:
                cols = cols_of(x_q)
                return cols, exact_matmul(w_mat, cols)
            w_mat, offset = folded
        acc = self._streamed_gemm(x_q, w_mat, cols_of, positions)
        if offset is not None:
            acc += offset[None, :, None]
        return None, acc

    @staticmethod
    def _streamed_gemm(
        x_q: np.ndarray, w_mat: np.ndarray, cols_of, positions: int
    ) -> np.ndarray:
        """``w_mat @ cols_of(x_q)`` over image blocks of L2-sized columns.

        Each block's float32 columns fit in :data:`STREAM_BLOCK_BYTES`, so
        only the int64 accumulator spans the whole batch: the batch-sized
        column buffer and its float copy are never allocated.  Every block
        is an independent exact GEMM, so the result is bit-identical to one
        call.
        """
        n = x_q.shape[0]
        block = max(1, STREAM_BLOCK_BYTES // (4 * w_mat.shape[1] * positions))
        if n <= block:
            return exact_matmul(w_mat, cols_of(x_q))
        acc = np.empty((n, w_mat.shape[0], positions), dtype=np.int64)
        for lo in range(0, n, block):
            acc[lo:lo + block] = exact_matmul(w_mat, cols_of(x_q[lo:lo + block]))
        return acc

    def _fold_constants(
        self,
        w_mat: np.ndarray,
        in_channels: int,
        kernel_elems: int,
        config: InjectionConfig,
    ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """``(folded weights, per-channel offset)`` of a constant-only config.

        Returns ``None`` unless every armed fault is a product-stage constant
        override (value- and cycle-independent).  Each site's affected
        weights are zeroed — removing their true contribution — and
        ``constant * terms`` (real plus padding lanes) is added to the
        site's output channels: the correction path's ``clean -
        true_contrib + constant * terms`` evaluated inside one GEMM.  Sites
        are disjoint in ``(output channel, input lane)``, so the folds
        compose.  The offset is ``None`` when it is zero everywhere.
        """
        if not all(
            model.stage == "product"
            and not model.value_dependent
            and not model.cycle_dependent
            and model.constant_override() is not None
            for model in config.faults.values()
        ):
            return None
        w_fold = w_mat.copy()
        offset = np.zeros(w_mat.shape[0], dtype=np.int64)
        for site, model in config.faults.items():
            site.validate(self.geometry.num_macs, self.geometry.muls_per_mac)
            oc_sel, _, rows, pad_terms = self._site_lanes(
                site, w_mat.shape[0], in_channels, kernel_elems
            )
            w_fold[np.ix_(oc_sel, rows)] = 0
            offset[oc_sel] += np.int64(model.constant_override()) * (rows.size + pad_terms)
        return w_fold, (offset if offset.any() else None)

    @staticmethod
    def _saturated(acc: np.ndarray, owned: bool) -> np.ndarray:
        """34-bit accumulator saturation, in place when the buffer is owned."""
        return saturate(acc, ACCUMULATOR_WIDTH, out=acc if owned else None)

    def _apply_faults_conv(
        self,
        acc: np.ndarray,
        cols: np.ndarray,
        w_mat: np.ndarray,
        node: QConv,
        config: InjectionConfig,
        owned: bool = False,
    ) -> np.ndarray:
        self._validate_stage_combination(config)
        if not owned:
            # Shared tape/cache entry: corrections must not leak into it.
            acc = acc.copy()
        self._apply_config(
            acc, cols, w_mat, node.out_channels, node.in_channels,
            node.kernel_size ** 2, config,
        )
        return acc

    def _apply_config(
        self,
        acc_view: np.ndarray,
        cols: np.ndarray,
        w_mat: np.ndarray,
        out_channels: int,
        in_channels: int,
        kernel_elems: int,
        config: InjectionConfig,
    ) -> None:
        """Add one configuration's correction terms to ``acc_view`` in place.

        ``acc_view`` must be writable (a fresh copy or a slice of a fused
        accumulator stack) and hold the *clean* accumulator of the samples
        that ``cols`` describes.  Shared by the single-trial path and the
        fused multi-trial path, so both produce bit-identical corrections.
        """
        start = PROFILER.tick()
        for site, model in config.faults.items():
            site.validate(self.geometry.num_macs, self.geometry.muls_per_mac)
            correction = self._site_correction(
                cols, w_mat, out_channels, in_channels, kernel_elems, site, model
            )
            if correction is None:
                continue
            oc_sel, delta = correction
            acc_view[:, oc_sel, :] += delta
        PROFILER.tock("correction", start)

    @staticmethod
    def _validate_stage_combination(config: InjectionConfig) -> None:
        """Reject fault combinations whose corrections are not additive.

        Corrections are applied independently per armed site on top of the
        *clean* accumulator, which is exact as long as every armed fault
        touches a disjoint set of terms.  An accumulator-stage fault is a
        non-linear function of its MAC unit's partial sums, so it cannot be
        combined with another fault on the same MAC unit (the scalar
        reference engine handles such configurations; the vectorised engine
        refuses them rather than silently produce different results).
        """
        acc_macs: list[int] = []
        product_macs: set[int] = set()
        for site, model in config.faults.items():
            if model.stage == "accumulator":
                acc_macs.append(site.mac_unit)
            else:
                product_macs.add(site.mac_unit)
        duplicates = {mac for mac in acc_macs if acc_macs.count(mac) > 1}
        if duplicates:
            raise ValueError(
                f"MAC unit(s) {sorted(duplicates)} carry more than one "
                "accumulator-stage fault; a MAC unit has a single partial-sum bus"
            )
        overlap = set(acc_macs) & product_macs
        if overlap:
            raise NotImplementedError(
                f"MAC unit(s) {sorted(overlap)} combine product-stage and "
                "accumulator-stage faults; the vectorised engine cannot apply "
                "these additively — use the scalar reference engine"
            )

    def _cycle_indices(
        self,
        n_batch: int,
        positions: int,
        kernel_groups: int,
        channel_groups: int,
        kernel_elems: int,
        kg_sel: np.ndarray,
        inner: np.ndarray,
    ) -> np.ndarray:
        """Per-layer atomic-operation index of each affected term.

        The hardware schedule iterates sample -> output position -> kernel
        group -> channel group -> kernel element, every multiplier firing
        once per atomic operation, so the cycle of the term computed for
        (sample ``n``, output position ``p``, kernel group ``kg``, channel
        group ``cg``, kernel element ``e``) is::

            ((n * P + p) * KG + kg) * (CG * K^2) + cg * K^2 + e

        ``kg_sel`` holds the kernel group of each selected output channel and
        ``inner`` the ``cg * K^2 + e`` term of each affected im2col row; the
        result has shape ``(N, len(kg_sel), len(inner), P)`` matching the
        materialised products.
        """
        np_term = (
            np.arange(n_batch, dtype=np.int64)[:, None] * positions
            + np.arange(positions, dtype=np.int64)[None, :]
        )  # (N, P)
        return (
            (np_term[:, None, None, :] * kernel_groups + kg_sel[None, :, None, None])
            * (channel_groups * kernel_elems)
            + inner[None, None, :, None]
        )

    def _accumulator_delta(
        self,
        cols: np.ndarray,
        w_mat: np.ndarray,
        oc_sel: np.ndarray,
        in_channels: int,
        kernel_elems: int,
        model: FaultModel,
    ) -> np.ndarray:
        """Correction for an accumulator-stage fault on one MAC unit.

        The fault transforms every partial sum the MAC unit forwards to the
        CACC — one per (channel group, kernel element) atomic operation — so
        the affected partial sums are materialised by grouping the im2col
        rows into atomic-C lanes (padding lanes contribute zero, exactly as
        the zero-padded hardware lanes do) and the correction is the summed
        difference between the faulty and the clean partials.
        """
        atomic_c = self.geometry.atomic_c
        channel_groups = self.geometry.channel_groups(in_channels)
        n_batch, _, positions = cols.shape
        n_out = oc_sel.size
        padded_channels = channel_groups * atomic_c

        w_g = np.zeros((n_out, padded_channels, kernel_elems), dtype=np.int64)
        w_g[:, :in_channels, :] = (
            w_mat[oc_sel].astype(np.int64).reshape(n_out, in_channels, kernel_elems)
        )
        w_g = w_g.reshape(n_out, channel_groups, atomic_c, kernel_elems)
        cols_g = np.zeros(
            (n_batch, padded_channels, kernel_elems, positions), dtype=np.int64
        )
        cols_g[:, :in_channels] = (
            cols.astype(np.int64).reshape(n_batch, in_channels, kernel_elems, positions)
        )
        cols_g = cols_g.reshape(n_batch, channel_groups, atomic_c, kernel_elems, positions)

        # One partial sum per (sample, output channel, channel group, kernel
        # element, position): the lane axis is contracted by the adder tree.
        # The generic int64 einsum is acceptable here because, like the
        # value-dependent product path, it only touches the armed MAC's
        # ~1/atomic_k slice of the layer; the clean accumulator itself still
        # comes from the BLAS-backed GEMM core.
        partials = np.einsum("ogle,nglep->nogep", w_g, cols_g)
        faulty = model.apply(partials, self.rng)
        return (faulty - partials).sum(axis=(2, 3))

    def _site_lanes(
        self,
        site: FaultSite,
        out_channels: int,
        in_channels: int,
        kernel_elems: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """NVDLA lane mapping of one site: ``(oc_sel, ic_real, rows, pad_terms)``.

        ``oc_sel`` holds the output channels MAC unit ``site.mac_unit``
        computes, ``ic_real`` the real input channels multiplier
        ``site.multiplier`` sees, ``rows`` their im2col rows and
        ``pad_terms`` the products of the site's zero-padded channel lanes
        (one per kernel element), which still cycle in hardware.
        """
        oc_sel = np.arange(site.mac_unit, out_channels, self.geometry.atomic_k)
        ic_real = np.arange(site.multiplier, in_channels, self.geometry.atomic_c)
        pad_lanes = self.geometry.channel_groups(in_channels) - ic_real.size
        # Row r of the im2col buffer holds (channel r // K^2, kernel elem
        # r % K^2); the faulty lane touches every kernel element of its
        # channels, i.e. the K^2-blocks starting at ic_real * K^2.
        rows = (ic_real[:, None] * kernel_elems + np.arange(kernel_elems)[None, :]).ravel()
        return oc_sel, ic_real, rows, pad_lanes * kernel_elems

    def _site_correction(
        self,
        cols: np.ndarray,
        w_mat: np.ndarray,
        out_channels: int,
        in_channels: int,
        kernel_elems: int,
        site: FaultSite,
        model: FaultModel,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Correction term added to ``acc[:, oc_sel, :]`` for one fault site."""
        oc_sel, ic_real, rows, pad_terms = self._site_lanes(
            site, out_channels, in_channels, kernel_elems
        )
        if oc_sel.size == 0:
            # The MAC unit only ever processes padded (discarded) kernels.
            return None

        if model.stage == "accumulator":
            if model.cycle_dependent:
                raise NotImplementedError(
                    "cycle-dependent accumulator-stage models are not supported"
                )
            delta = self._accumulator_delta(
                cols, w_mat, oc_sel, in_channels, kernel_elems, model
            )
            return oc_sel, delta

        n_batch, _, positions = cols.shape

        constant = model.constant_override()
        if constant is not None and not model.value_dependent:
            total_terms = rows.size + pad_terms
            if rows.size:
                w_sub = w_mat[np.ix_(oc_sel, rows)]
                cols_sub = cols[:, rows, :]
                true_contrib = exact_matmul(w_sub, cols_sub)
            else:
                true_contrib = np.zeros((n_batch, oc_sel.size, positions), dtype=np.int64)
            delta = np.int64(constant) * total_terms - true_contrib
            return oc_sel, delta

        if model.cycle_dependent:
            return oc_sel, self._cyclic_delta(
                cols, w_mat, oc_sel, in_channels, kernel_elems, out_channels,
                ic_real, rows, site, model,
            )

        # Value-dependent path: materialise the affected products.
        delta = np.zeros((n_batch, oc_sel.size, positions), dtype=np.int64)
        if rows.size:
            w_sub = w_mat[np.ix_(oc_sel, rows)].astype(np.int64)  # (O, R)
            cols_sub = cols[:, rows, :].astype(np.int64)  # (N, R, P)
            products = w_sub[None, :, :, None] * cols_sub[:, None, :, :]  # (N, O, R, P)
            faulty = model.apply(products, self.rng)
            delta += (faulty - products).sum(axis=2)
        if pad_terms:
            pad_products = np.zeros((n_batch, oc_sel.size, pad_terms, positions), dtype=np.int64)
            pad_faulty = model.apply(pad_products, self.rng)
            delta += pad_faulty.sum(axis=2)
        return oc_sel, delta

    def _cyclic_delta(
        self,
        cols: np.ndarray,
        w_mat: np.ndarray,
        oc_sel: np.ndarray,
        in_channels: int,
        kernel_elems: int,
        out_channels: int,
        ic_real: np.ndarray,
        rows: np.ndarray,
        site: FaultSite,
        model: FaultModel,
    ) -> np.ndarray:
        """Correction for a cycle-dependent product-stage fault on one site.

        The faulty value of each affected product depends on the atomic
        operation that produced it, so the cycle index of every affected
        term (real lanes *and* zero-padded lanes, which still cycle in
        hardware) is reconstructed from the schedule and handed to the
        model together with the materialised products.
        """
        atomic_c = self.geometry.atomic_c
        atomic_k = self.geometry.atomic_k
        channel_groups = self.geometry.channel_groups(in_channels)
        kernel_groups = self.geometry.kernel_groups(out_channels)
        pad_lane_count = channel_groups - ic_real.size
        n_batch, _, positions = cols.shape
        kg_sel = oc_sel // atomic_k
        elems = np.arange(kernel_elems, dtype=np.int64)

        delta = np.zeros((n_batch, oc_sel.size, positions), dtype=np.int64)
        if rows.size:
            inner = ((ic_real // atomic_c)[:, None] * kernel_elems + elems[None, :]).ravel()
            cycles = self._cycle_indices(
                n_batch, positions, kernel_groups, channel_groups, kernel_elems,
                kg_sel, inner,
            )
            w_sub = w_mat[np.ix_(oc_sel, rows)].astype(np.int64)  # (O, R)
            cols_sub = cols[:, rows, :].astype(np.int64)  # (N, R, P)
            products = w_sub[None, :, :, None] * cols_sub[:, None, :, :]  # (N, O, R, P)
            faulty = model.apply_at(products, cycles)
            delta += (faulty - products).sum(axis=2)
        if pad_lane_count:
            # The trailing channel groups hold the site's padding lanes;
            # their products are zero but the transient still overrides them.
            pad_cgs = np.arange(channel_groups - pad_lane_count, channel_groups, dtype=np.int64)
            inner = (pad_cgs[:, None] * kernel_elems + elems[None, :]).ravel()
            cycles = self._cycle_indices(
                n_batch, positions, kernel_groups, channel_groups, kernel_elems,
                kg_sel, inner,
            )
            pad_products = np.zeros(
                (n_batch, oc_sel.size, inner.size, positions), dtype=np.int64
            )
            pad_faulty = model.apply_at(pad_products, cycles)
            delta += pad_faulty.sum(axis=2)
        return delta

    # ------------------------------------------------------------------
    # Fully connected
    # ------------------------------------------------------------------
    def linear_accumulate(
        self,
        x_q: np.ndarray,
        node: QLinear,
        config: InjectionConfig | None = None,
        exec_index: int = 0,
    ) -> np.ndarray:
        """Raw accumulator of a fully-connected layer, int64 of shape (N, OUT)."""
        if x_q.dtype != np.int8:
            raise TypeError(f"expected int8 activations, got {x_q.dtype}")
        config = config or InjectionConfig.fault_free()
        if x_q.ndim != 2:
            raise ValueError(f"linear input must be (N, features), got shape {x_q.shape}")
        x_q, weight, config, reusable = self._staged_operands(
            x_q, node.weight, config, exec_index
        )
        n, in_features = x_q.shape
        out_features, in_w = weight.shape
        if in_features != in_w:
            raise ValueError(f"{node.name}: input features {in_features} != weight {in_w}")

        # An FC layer is a 1x1 convolution over a 1x1 feature map on this
        # datapath; reuse the convolution fault arithmetic with P == 1.
        w_mat = weight  # int8, (OUT, IN)

        def cols_of(x: np.ndarray) -> np.ndarray:
            return x.reshape(x.shape[0], in_features, 1)

        cols, acc, owned = self._clean_accumulate(
            node.name, x_q, w_mat, lambda: cols_of(x_q),
            reusable=reusable,
            recompute=lambda: self._recompute(x_q, w_mat, cols_of, 1, in_features, 1, config),
        )

        if config.enabled and cols is not None:
            self._validate_stage_combination(config)
            if not owned:
                acc = acc.copy()
            self._apply_config(acc, cols, w_mat, out_features, in_features, 1, config)
            owned = True

        acc = self._saturated(acc, owned)
        return acc.reshape(n, out_features)

    # ------------------------------------------------------------------
    # Fused multi-trial evaluation
    # ------------------------------------------------------------------
    def _fused_clean_parts(
        self,
        name: str,
        x_shared: np.ndarray | None,
        make_cols,
        w_mat: np.ndarray,
        clean_entry: TapeOpEntry | None,
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """``(cols, clean acc, acc owned)`` for a fused layer evaluation.

        ``clean_entry`` (all trials still on the clean prefix) serves the
        taped parts without any compute; a shared clean input without taped
        parts goes through :meth:`_clean_accumulate` (one GEMM for the whole
        group, cache-aware); a diverged trial stack runs one stacked GEMM.
        """
        if clean_entry is not None and clean_entry.acc is not None:
            if self.tape is not None:
                self.tape.layer_hits += 1
            return clean_entry.cols, clean_entry.acc, False
        if x_shared is not None:
            return self._clean_accumulate(name, x_shared, w_mat, make_cols)
        if self.tape is not None:
            self.tape.layer_misses += 1
        start = PROFILER.tick()
        cols = make_cols()
        acc = exact_matmul(w_mat, cols)
        PROFILER.tock("suffix_forward", start)
        return cols, acc, True

    def _fused_corrections(
        self,
        cols: np.ndarray,
        clean_acc: np.ndarray,
        w_mat: np.ndarray,
        out_channels: int,
        in_channels: int,
        kernel_elems: int,
        configs: list[InjectionConfig],
        per_trial: int,
        shared_cols: bool,
        acc_owned: bool = False,
    ) -> np.ndarray:
        """Stack of per-trial faulty accumulators, shape ``(G*N, OC, P)``.

        ``shared_cols`` means every trial sees the same clean input (cols
        has ``per_trial`` samples and the clean accumulator is broadcast
        across the group); otherwise ``cols``/``clean_acc`` hold the whole
        stack and trial ``g`` corrects its own ``[g*N, (g+1)*N)`` slice.
        Each trial's correction is computed exactly as the single-trial
        path computes it — same cols, same cycle indices (per-slice sample
        indices restart at 0) — so the stack is bit-identical to evaluating
        the group one configuration at a time.
        """
        groups = len(configs)
        if shared_cols:
            acc_stack = np.tile(clean_acc, (groups, 1, 1))
        elif acc_owned:
            acc_stack = clean_acc
        else:
            acc_stack = clean_acc.copy()
        for g, config in enumerate(configs):
            if not config.enabled:
                continue
            self._validate_stage_combination(config)
            trial_cols = cols if shared_cols else cols[g * per_trial:(g + 1) * per_trial]
            acc_view = acc_stack[g * per_trial:(g + 1) * per_trial]
            self._apply_config(
                acc_view, trial_cols, w_mat, out_channels, in_channels,
                kernel_elems, config,
            )
        return acc_stack

    def conv_accumulate_fused(
        self,
        node: QConv,
        configs: list[InjectionConfig],
        per_trial: int,
        x_stack: np.ndarray | None = None,
        x_clean: np.ndarray | None = None,
        clean_entry: TapeOpEntry | None = None,
    ) -> np.ndarray:
        """Convolution accumulators of ``len(configs)`` trials in one pass.

        Exactly one input form must describe the clean prefix state:

        * ``clean_entry`` — all trials' inputs equal the taped clean input;
          the taped cols/accumulator are reused and only the per-trial
          correction terms are evaluated.
        * ``x_clean`` — shared clean input ``(N, C, H, W)`` with no taped
          parts available; the clean GEMM runs once for the whole group.
        * ``x_stack`` — diverged inputs stacked as ``(G*N, C, H, W)``; one
          stacked im2col + GEMM replaces G per-trial passes.

        Returns the saturated accumulator stack ``(G*N, OC, OH, OW)``,
        bit-identical to concatenating G single-trial ``conv_accumulate``
        calls.
        """
        sources = [x_stack, x_clean, clean_entry]
        if sum(s is not None for s in sources) != 1:
            raise ValueError("provide exactly one of x_stack, x_clean, clean_entry")
        groups = len(configs)
        if clean_entry is not None:
            x_ref = clean_entry.inputs[0]
        elif x_clean is not None:
            x_ref = x_clean
        else:
            x_ref = x_stack
            if x_ref.shape[0] != groups * per_trial:
                raise ValueError(
                    f"stack of {x_ref.shape[0]} samples does not hold "
                    f"{groups} trials x {per_trial} images"
                )
        if x_ref.dtype != np.int8:
            raise TypeError(f"expected int8 activations, got {x_ref.dtype}")
        _, ic, h, w = x_ref.shape
        oc, ic_w, k, _ = node.weight.shape
        if ic != ic_w:
            raise ValueError(f"{node.name}: input channels {ic} != weight channels {ic_w}")
        out_h = conv_output_size(h, k, node.stride, node.padding)
        out_w = conv_output_size(w, k, node.stride, node.padding)
        w_mat = node.weight.reshape(oc, -1)

        shared = x_stack is None
        source = x_ref if x_stack is None else x_stack
        cols, clean_acc, acc_owned = self._fused_clean_parts(
            node.name,
            source if shared else None,
            lambda: im2col(source, k, node.stride, node.padding),
            w_mat,
            clean_entry,
        )
        acc_stack = self._fused_corrections(
            cols, clean_acc, w_mat, oc, ic, k * k, configs, per_trial, shared,
            acc_owned=acc_owned and not shared,
        )
        # The stack is always freshly tiled/copied, so saturate in place.
        saturate(acc_stack, ACCUMULATOR_WIDTH, out=acc_stack)
        return acc_stack.reshape(groups * per_trial, oc, out_h, out_w)

    def linear_accumulate_fused(
        self,
        node: QLinear,
        configs: list[InjectionConfig],
        per_trial: int,
        x_stack: np.ndarray | None = None,
        x_clean: np.ndarray | None = None,
        clean_entry: TapeOpEntry | None = None,
    ) -> np.ndarray:
        """Fully-connected accumulators of ``len(configs)`` trials at once.

        Same contract as :meth:`conv_accumulate_fused`; returns the stack
        ``(G*N, OUT)``.
        """
        sources = [x_stack, x_clean, clean_entry]
        if sum(s is not None for s in sources) != 1:
            raise ValueError("provide exactly one of x_stack, x_clean, clean_entry")
        groups = len(configs)
        if clean_entry is not None:
            x_ref = clean_entry.inputs[0]
        else:
            x_ref = x_clean if x_clean is not None else x_stack
        if x_stack is not None and x_stack.shape[0] != groups * per_trial:
            raise ValueError(
                f"stack of {x_stack.shape[0]} samples does not hold "
                f"{groups} trials x {per_trial} images"
            )
        if x_ref.dtype != np.int8:
            raise TypeError(f"expected int8 activations, got {x_ref.dtype}")
        if x_ref.ndim != 2:
            raise ValueError(f"linear input must be (N, features), got shape {x_ref.shape}")
        in_features = x_ref.shape[1]
        out_features, in_w = node.weight.shape
        if in_features != in_w:
            raise ValueError(f"{node.name}: input features {in_features} != weight {in_w}")
        w_mat = node.weight

        shared = x_stack is None
        source = x_ref if x_stack is None else x_stack
        cols, clean_acc, acc_owned = self._fused_clean_parts(
            node.name,
            source if shared else None,
            lambda: source.reshape(source.shape[0], in_features, 1),
            w_mat,
            clean_entry,
        )
        acc_stack = self._fused_corrections(
            cols, clean_acc, w_mat, out_features, in_features, 1,
            configs, per_trial, shared,
            acc_owned=acc_owned and not shared,
        )
        saturate(acc_stack, ACCUMULATOR_WIDTH, out=acc_stack)
        return acc_stack.reshape(groups * per_trial, out_features)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def affected_fraction(self, node: QConv | QLinear, config: InjectionConfig) -> float:
        """Fraction of this layer's products that the armed faults corrupt.

        Useful for sanity-checking campaign severity: a single faulty
        multiplier in an 8x8 array corrupts 1/64 of all products.
        """
        if not config.enabled:
            return 0.0
        if isinstance(node, QConv):
            in_channels, out_channels = node.in_channels, node.out_channels
        else:
            in_channels, out_channels = node.in_features, node.out_features
        total_pairs = self.geometry.pad_channels(in_channels) * out_channels
        affected = 0
        for site, model in config.faults.items():
            oc_count = len(range(site.mac_unit, out_channels, self.geometry.atomic_k))
            if model.stage == "accumulator":
                # Every lane of the MAC unit feeds the corrupted partial sum.
                ic_count = self.geometry.pad_channels(in_channels)
            else:
                ic_count = self.geometry.channel_groups(in_channels)
            affected += oc_count * ic_count
        return affected / max(total_pairs, 1)
