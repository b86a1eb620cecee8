// Batched serving layer over an immutable PreparedModel.
//
// ServingEngine runs continuous batching: a request queue feeds up to
// `max_batch` concurrently running sequences, each with its own
// SequenceState, all decoding against one shared PreparedModel. Sequences
// at different positions (one mid-prompt, one deep into generation) coexist
// in the same batch. A slot freed by a completed sequence is refilled from
// the queue at the start of the next step (the newly admitted sequence
// would not decode any earlier if admitted sooner); a KV-exhaustion
// eviction refills within the same step. With n_threads > 0 the
// per-sequence decodes fan out across a thread pool; because
// PreparedModel::step is const and per-sequence state is disjoint, the
// results are bitwise identical to the serial schedule.
//
// Scheduling is a pluggable policy (ServingConfig::scheduler, see
// scheduler.h): each step the engine asks the scheduler which queued
// request to admit next, how many tokens each running sequence may process
// (its budget), and — under pool pressure — which runner to preempt. The
// engine guarantees around every policy:
//   * a budget of 1 is always honored: every running sequence advances at
//     least one token per step it decodes in (no policy can starve a
//     runner);
//   * budgets above 1 apply only to KNOWN tokens (prompt prefill and
//     post-preemption replay) and are clamped to prefill_chunk_tokens and
//     the sequence's remaining KV space;
//   * under pool pressure budgets shrink back to 1 BEFORE any sequence is
//     preempted. When the scheduler's admission candidate cannot get its KV
//     blocks, the engine asks the policy for the next admissible candidate
//     (Scheduler::pick_admission_blocked) so a small request can admit
//     around a memory-blocked large one; the default — and FIFO, whose
//     bitwise contract requires strict arrival order — declines, keeping
//     head-of-line semantics (nothing jumps the blocked candidate). A
//     blocked candidate keeps its queue position and adopted prefix and is
//     retried first on later steps;
//   * scheduler hooks fire only from the engine's serial phase — never
//     concurrently, never re-entrantly (see scheduler.h for the full
//     contract, including what stateful policies may assume).
// Because per-sequence computation is deterministic and preemption replays
// bitwise, every policy returns token-for-token identical results per
// request; policies only reorder who gets them first.
//
// Chunked prefill (ServingConfig::prefill_chunk_tokens > 1): sequences
// with multiple known tokens feed them through
// PreparedModel::prefill_chunk — one multi-token pass per step, bitwise
// identical to that many single steps in every kv_mode — so a long prompt
// reaches its first generated token in prompt/chunk steps instead of
// prompt steps, and short requests interleave with it instead of waiting
// behind a token-by-token prefill. The logits observer still fires once
// per fed position.
//
// Sampling (Request::sampling, see sampler.h): once a sequence's known
// tokens are fed, the frontier logits — after a chunk, the chunk-final
// position's — go through the request's Sampler: greedy argmax by default
// (bitwise identical to the historical engine), or seeded temperature /
// top-k / top-p with repetition-penalty and logit-bias hooks. The
// per-request RNG stream is counter-based and rides in the sequence's
// SequenceState (checkpointed across full KV release); replayed tokens are
// fed as known tokens without re-sampling, so the emitted stream is
// invariant to batching, scheduling policy, chunk width, threading, and
// preemption. Stop conditions (eos / stop tokens / stop sequences /
// max_new_tokens) retire the request with a FinishReason
// (RequestResult::finish_reason, cumulative Stats::finish_reasons), and an
// optional TokenObserver streams each sampled token as it is produced.
//
// Speculative decoding (ServingConfig::speculative, see drafter.h): a
// per-request Drafter proposes k continuation tokens for a sequence at its
// generation frontier; the engine feeds [frontier, d1..dk] through
// prefill_chunk as one verify burst — block reservation covers all k+1 rows
// up front — and then walks the per-row logits serially, running the
// request's own sampler on each row (one draw per generated token, exactly
// the non-speculative discipline). Each sampled token is committed
// unconditionally; the burst continues only while the sample matches the
// next fed draft, and the rejected suffix is rolled back bitwise with
// SequenceState::spec_rollback (quantized boundary blocks are snapshot-
// replayed, so the kept prefix stays canonical and prefix-cacheable).
// Committed output is therefore BITWISE identical to the non-speculative
// engine for every sampler, seed, kv_mode, thread count, and preemption
// pattern — speculation only changes how many model passes it takes. Under
// pool pressure a burst's budget shrinks back to 1 like any chunk,
// degrading to plain single-token decode. Stats::spec_* count bursts and
// per-draft accept/reject outcomes; Scheduler::on_served is charged only
// tokens actually committed.
//
// KV memory is paged: every sequence allocates fixed-size blocks from a
// KvBlockPool (engine-owned by default, or shared across engines via
// ServingConfig::kv_pool), quantized per the model's EngineConfig::kv_mode.
// The engine is memory-aware end to end:
//   * admission requires free blocks for the candidate's next step, not
//     just a free batch slot;
//   * before each decode, every running sequence's blocks for its budget
//     are reserved serially (the parallel decode phase never touches the
//     pool);
//   * when the pool cannot cover the batch's next step even at budget 1,
//     the scheduler's victim is preempted — its blocks return to the pool
//     and it re-queues at the front for deterministic recompute — before
//     any hard eviction;
//   * with nothing left to preempt, kept prefixes of queued (manually
//     preempted) sequences are reclaimed next — they replay regardless —
//     and only a lone sequence that a *private* pool still cannot grow is
//     evicted (kEvicted), which guarantees forward progress for any pool
//     that holds at least one block column (2 * n_layers blocks). When the
//     missing blocks are held by another engine on a shared pool, step()
//     stalls (returns 0) instead of evicting: the shortfall is transient.
// Because full preemption replays the exact token prefix through fresh
// blocks, serving under memory pressure returns the same tokens as serving
// with an unbounded pool (bitwise in fp32 mode; see test_serving.cpp).
//
// Prefix caching (ServingConfig::enable_prefix_cache): full KV blocks are
// immutable and their contents are a pure function of the token prefix
// that produced them, so the engine keeps a PrefixCache — a radix tree
// over block-aligned token-id chunks — on its pool. At admission it maps
// the longest cached prefix of the request's tokens straight into the
// sequence's block tables (taking references, skipping prefill for those
// positions; at least the final known token is always fed so its logits
// exist to extend from); on release — completion, eviction, or preemption
// — it indexes the sequence's full block columns instead of discarding
// them, which also turns preemption replay into a cache hit. Cached blocks
// no sequence references stay reclaimable: under pool pressure the engine
// reclaims LRU cache entries *before* preempting anything — first its own,
// then (through KvBlockPool::request_reclaim) any sibling engine's on a
// shared pool, so an idle engine's cached blocks flow to a busy one
// instead of stalling it (reclaim_cached() is the hook the pool drives).
// Prefix-cache hits skip the skipped positions' decodes entirely — the
// logits observer does not fire for them — so leave the cache off for
// teacher-forced scoring that must see every position
// (evaluate_perplexity_batched does). Outputs are bitwise identical to a
// cache-off run in every kv_mode for block-aligned sharing, since a cached
// block holds exactly the codes a replay would recompute. The one way
// quantized KV could break that purity — preempt(id, keep>0) truncating
// mid-block, which leaves the boundary block's grow-only scale reflecting
// discarded rows — is fenced off: columns at or past such a truncation are
// never indexed (see Sequence::non_canonical_from).
//
// Observability (common/metrics.h, common/trace.h): the engine owns a
// MetricsRegistry that every composed subsystem binds into — Scheduler,
// per-request Drafters, PrefixCache, and the KvBlockPool — so metrics()
// snapshots the whole serving stack at once. The registry holds two kinds
// of series:
//   * deterministic counters (serving.steps / tokens_decoded /
//     rows_committed / admissions / preemptions / evictions / finished /
//     stalls / budget_shrinks / spec_*) — the one store of those counts:
//     stats() reads its Stats fields from them — plus the subsystems' own
//     counters (prefix_cache.*, kv_pool.*, scheduler.*, drafter.*).
//     rows_committed counts kept fed rows, prompt rows included; generated
//     tokens are what each model-pass trace event carries in d;
//   * wall-clock latency histograms (serving.queue_wait_ms / ttft_ms /
//     itl_ms / step_ms / decode_ms / prefill_chunk_ms / spec_verify_ms)
//     with p50/p95/p99 extraction — TTFT and inter-token latency are
//     measured per sampled token, chunk and spec-verify costs per model
//     pass, step_ms per decoding step.
// Structured tracing (ServingConfig::trace, or the OPAL_TRACE env var)
// records per-request lifecycle events (enqueue, admit, prefix-hit, chunk,
// decode, spec-burst, budget-shrink, preempt, evict, finish) and one
// engine-scoped record per step (batch composition, rows fed, block
// occupancy) into tracer()'s ring buffer, exportable as Chrome trace JSON
// and as a replayable step-trace JSON (see trace.h for the event payloads).
// The contract for ALL of it: instrumentation never feeds back into
// control flow, so an instrumented run is bitwise identical to an
// uninstrumented one — metrics are always on (cheap integer bumps and a
// handful of clock reads per step), tracing is opt-in and costs one
// predictable branch per event when off. Timing of the parallel decode
// phase is captured into per-slot scratch and observed serially, so the
// registry needs no synchronization (see metrics.h).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/kernel_profiler.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "llm/drafter.h"
#include "llm/kv_block_pool.h"
#include "llm/prefix_cache.h"
#include "llm/prepared_model.h"
#include "llm/scheduler.h"
#include "llm/sequence_state.h"

namespace opal {

struct Request {
  /// Tokens fed verbatim (teacher-forced). Must be non-empty.
  std::vector<std::size_t> prompt;
  /// Continuation length after the prompt (0 = pure scoring). Overridden by
  /// sampling.max_new_tokens when that is nonzero.
  std::size_t max_new_tokens = 0;
  /// Scheduling class: higher runs sooner under PriorityScheduler (and any
  /// policy that reads it); FIFO ignores it. Stats are broken out per
  /// priority either way.
  int priority = 0;
  /// How the continuation is sampled, plus stop conditions and the
  /// per-request RNG seed (see sampler.h). The default is the historical
  /// greedy argmax with no stop conditions — bitwise unchanged outputs.
  /// Seeded sampling is scheduling-invariant: identical (seed, sampling,
  /// prompt) produce the identical stream under every scheduler policy,
  /// chunk width, kv_mode, thread count, and across preemption replay.
  SamplingParams sampling = {};
};

enum class RequestStatus : std::uint8_t {
  kQueued,    // waiting for a batch slot
  kRunning,   // occupying a batch slot
  kFinished,  // decoded prompt + max_new_tokens
  kEvicted,   // stopped early: KV limit (max_seq_len or an unservable pool)
};

[[nodiscard]] std::string to_string(RequestStatus status);

struct RequestResult {
  RequestStatus status = RequestStatus::kQueued;
  /// Prompt followed by generated tokens.
  std::vector<std::size_t> tokens;
  std::size_t prompt_len = 0;
  /// Why generation stopped (kNone while running, for pure-scoring
  /// requests, and for kEvicted cutoffs).
  FinishReason finish_reason = FinishReason::kNone;
  /// Tokens generated so far (tokens.size() - prompt_len).
  [[nodiscard]] std::size_t generated() const {
    return tokens.size() - prompt_len;
  }
};

struct ServingConfig {
  /// Maximum concurrently running sequences (batch slots).
  std::size_t max_batch = 8;
  /// Worker threads for the per-step decode fan-out; 0 = serial decode on
  /// the calling thread.
  std::size_t n_threads = 0;
  /// KV block budget when the engine builds its own pool: 0 sizes the pool
  /// for max_batch sequences at full max_seq_len (no preemption possible —
  /// the dense-equivalent footprint); a smaller count serves the same batch
  /// in less memory at the cost of preemptions under pressure.
  std::size_t kv_pool_blocks = 0;
  /// Optional pool shared with other engines (block_size/d_model/mode must
  /// match the model). Null: the engine creates a private pool. Size a
  /// shared pool to hold at least one full-length sequence per sharing
  /// engine: below that, engines whose lone sequences all need new block
  /// columns can hold each other's blocks and stall mutually — step()
  /// returns 0 with running() > 0 (distinguishable from a drained engine,
  /// where running() and queued() are both 0), and the caller must
  /// preempt() or resize to make progress. Engines with prefix caches
  /// enabled reclaim each other's unreferenced cached blocks automatically
  /// under pressure (KvBlockPool::request_reclaim), so only blocks held by
  /// live sequences can sustain such a stall.
  std::shared_ptr<KvBlockPool> kv_pool;
  /// Reuse KV blocks across requests that share token prefixes (see the
  /// header comment). Off by default because restored positions skip their
  /// decodes, which silences the logits observer for those positions.
  bool enable_prefix_cache = false;
  /// Scheduling policy; null = FifoScheduler. The engine shares ownership;
  /// see scheduler.h for the hook contract and when an instance may be
  /// shared between engines.
  std::shared_ptr<Scheduler> scheduler;
  /// Upper bound on tokens one sequence may process in one step (its
  /// prefill chunk). 1 (the default) reproduces single-token stepping
  /// decision-for-decision; larger values let prompts prefill in
  /// multi-token chunks (PreparedModel::prefill_chunk — bitwise identical
  /// results in every kv_mode, fewer steps and one KV-prefix pass per
  /// layer per chunk instead of per token).
  std::size_t prefill_chunk_tokens = 1;
  /// Speculative multi-token decoding (see drafter.h and the header
  /// comment): when enabled(), sequences at their generation frontier
  /// verify up to `speculative.draft_tokens` drafted tokens per model pass.
  /// Committed output stays bitwise identical to speculation off; only the
  /// pass count changes. Independent of prefill_chunk_tokens (a verify
  /// burst reuses the chunked-prefill machinery but is capped by
  /// draft_tokens, not the prefill chunk width).
  SpeculativeConfig speculative;
  /// Structured event tracing (see common/trace.h and the Observability
  /// block above): per-request lifecycle and per-step events into a ring
  /// buffer, exportable via ServingEngine::tracer() as Chrome trace JSON
  /// or replayable step-trace JSON. The OPAL_TRACE environment variable
  /// (non-empty, not "0") force-enables tracing regardless of this flag.
  /// Tracing never feeds control flow — traced runs are bitwise identical.
  bool trace = false;
  /// Trace ring capacity in events (oldest overwritten first; overwrites
  /// are counted in the step-trace header as dropped_steps /
  /// truncated_events). The OPAL_TRACE_CAPACITY environment variable (a
  /// positive integer) overrides this, so a long SLO run can be sized to
  /// lose nothing without recompiling.
  std::size_t trace_capacity = 1 << 16;
  /// Kernel/layer profiling (see common/kernel_profiler.h): swaps the
  /// KernelOps dispatch table for a timing wrapper that delegates to the
  /// real table, accumulating per-kernel-kind call/element/wall-clock
  /// counts and per-layer phase timings (ServingEngine::profile(), plus
  /// profile.* counters in the metrics registry). The OPAL_PROFILE
  /// environment variable (non-empty, not "0") force-enables it. Off (the
  /// default), the wrapper is not installed — the hot path is untouched.
  /// The wrapper calls the underlying kernels with unchanged arguments, so
  /// profiled runs are bitwise identical in every kv_mode.
  bool profile = false;
};

class ServingEngine {
 public:
  /// Shares ownership of the prepared model with the caller.
  ServingEngine(std::shared_ptr<const PreparedModel> model,
                ServingConfig config = {});
  /// Non-owning view: `model` must outlive the engine.
  ServingEngine(const PreparedModel& model, ServingConfig config = {});
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Enqueues a request; it starts running once the scheduler picks it and
  /// a batch slot plus enough free KV blocks are available.
  RequestId submit(Request request);

  /// Advances every running sequence by its scheduled token budget
  /// (admitting queued requests into free slots first, resolving KV
  /// pressure by budget-shrink then preemption). Returns the number of
  /// sequences decoded; 0 means no sequence can make progress — all work
  /// has drained, or (with a shared pool) every free block is held
  /// elsewhere.
  std::size_t step();

  /// Steps until no sequence can make progress (see step()).
  void run();

  /// Evicts a running sequence back to the queue. With the default
  /// `keep_positions == 0` every KV block returns to the pool; a nonzero
  /// value keeps the blocks covering the first `keep_positions` cached
  /// positions for partial recompute. Decoded tokens are kept either way
  /// and replayed from `keep_positions` on readmission. With keep 0 (the
  /// only form the engine itself uses under memory pressure) replay is
  /// deterministic in every kv_mode; a kept prefix is additionally exact
  /// under fp32 KV, while in quantized modes the boundary block keeps the
  /// grow-only scale its truncated rows produced, so results can differ
  /// slightly from an uninterrupted run — prefer keep_positions == 0 when
  /// strict reproducibility matters there. With the prefix cache on, the
  /// sequence's full block columns are indexed before anything is released,
  /// so replay typically restores them as a cache hit; columns at or past a
  /// mid-block truncation boundary in a quantized mode are excluded from
  /// indexing (they are no longer a pure function of the token prefix), so
  /// the cache itself stays exact for unrelated sharers.
  void preempt(RequestId id, std::size_t keep_positions = 0);

  /// Snapshot of a request's current result (returned by value: step(),
  /// submit(), and preempt() move sequences between the queue, the batch,
  /// and the finished map, so references into them would not be stable).
  [[nodiscard]] RequestResult result(RequestId id) const;
  /// True once the request will make no further progress — including
  /// kEvicted, where generation was truncated by the KV-cache limit. Check
  /// result(id).status when completeness matters.
  [[nodiscard]] bool finished(RequestId id) const;

  /// Drops all retained finished/evicted results (their ids become unknown
  /// to result()). Long-running servers should call this after harvesting
  /// results; retention is otherwise unbounded.
  void clear_finished() { done_.clear(); }
  /// Drops one harvested result; returns false when `id` is not retained
  /// (still in flight, or already released). Lets a server bound retention
  /// per request instead of all-or-nothing clear_finished().
  bool release(RequestId id) { return done_.erase(id) > 0; }

  /// Sequences currently occupying batch slots / waiting in the queue.
  [[nodiscard]] std::size_t running() const { return batch_.size(); }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }

  /// Per-priority serving accounting. All step-denominated quantities count
  /// engine steps (deterministic — independent of wall-clock), measured
  /// from submit(): queue_wait is steps spent before the request's first
  /// decode, ttft is steps until its first *generated* token exists
  /// (recorded only for requests with max_new_tokens > 0, counted by
  /// first_tokens).
  struct PriorityClassStats {
    std::size_t submitted = 0;
    std::size_t finished = 0;  // kFinished retirements
    std::size_t evicted = 0;   // kEvicted retirements
    /// Tokens committed (fed positions that stuck): speculative rows that
    /// were rejected and rolled back are excluded, matching
    /// Scheduler::on_served. Stats::tokens_decoded counts executed rows.
    std::size_t tokens_served = 0;
    std::size_t queue_wait_steps = 0;   // cumulative, over first_decodes
    std::size_t first_decodes = 0;
    std::size_t ttft_steps = 0;  // cumulative, over first_tokens
    std::size_t first_tokens = 0;
  };

  /// Point-in-time serving counters. Block counts read the underlying pool,
  /// so with a shared pool they include other engines' usage.
  struct Stats {
    std::size_t blocks_in_use = 0;
    std::size_t blocks_free = 0;
    /// Pool blocks-in-use high-water mark — with prefix sharing, N
    /// sequences over one prompt prefix peak far below N private copies.
    std::size_t blocks_peak = 0;
    /// Cached blocks no sequence references (free capacity in waiting).
    std::size_t blocks_reclaimable = 0;
    std::size_t running = 0;
    std::size_t queued = 0;
    std::size_t evictions = 0;       // cumulative kEvicted retirements
    std::size_t preemptions = 0;     // cumulative (manual + memory pressure)
    std::size_t tokens_decoded = 0;  // cumulative decode positions executed
    std::size_t steps = 0;           // cumulative step() calls
    // Prefix-cache counters (all 0 when enable_prefix_cache is off).
    std::size_t prefix_hits = 0;        // admissions that restored a prefix
    std::size_t prefix_misses = 0;      // admissions that found nothing
    std::size_t prefix_hit_tokens = 0;  // cumulative prefill decodes skipped
    std::size_t prefix_cached_blocks = 0;     // currently pinned by the cache
    std::size_t prefix_reclaimed_blocks = 0;  // cumulative freed under pressure
    // Speculative-decoding counters (all 0 when speculation is off).
    // Invariants: spec_drafted == spec_accepted + spec_rejected; a burst
    // feeding 1+k rows adds k to spec_drafted and commits 1 + (its accepted
    // drafts) tokens, so committed generation tokens per burst averages
    // tokens_per_burst(). tokens_decoded still counts every executed row,
    // including rejected ones — the compute actually spent.
    std::size_t spec_bursts = 0;    // multi-token verify passes executed
    std::size_t spec_drafted = 0;   // draft tokens fed for verification
    std::size_t spec_accepted = 0;  // draft tokens committed
    std::size_t spec_rejected = 0;  // draft tokens rolled back
    /// Average tokens committed per speculative burst — the ">1 tokens per
    /// model pass" headline; 0.0 before any burst ran.
    [[nodiscard]] double tokens_per_burst() const {
      if (spec_bursts == 0) return 0.0;
      return static_cast<double>(spec_bursts + spec_accepted) /
             static_cast<double>(spec_bursts);
    }
    /// Queue-wait / TTFT / tokens-served accounting per priority level.
    std::map<int, PriorityClassStats> by_priority;
    /// Cumulative kFinished retirements by why they stopped (kNone counts
    /// pure-scoring requests; kEvicted cutoffs are in `evictions`, not
    /// here).
    std::map<FinishReason, std::size_t> finish_reasons;
  };
  [[nodiscard]] Stats stats() const;

  /// Point-in-time snapshot of the engine's metrics registry: the
  /// deterministic counters Stats reads, the wall-clock latency
  /// histograms (p50/p95/p99), and the bound subsystem metrics
  /// (prefix_cache.*, kv_pool.*, scheduler.*, drafter.*) — see the
  /// Observability block in the header comment. Serial-phase only, like
  /// stats().
  [[nodiscard]] MetricsRegistry::Snapshot metrics() const {
    return registry_.snapshot();
  }
  /// The registry itself, so callers can put their own series next to the
  /// engine's (the SLO bench does) or cache metric handles. Same
  /// external-serialization contract as every other engine call.
  [[nodiscard]] MetricsRegistry& metrics_registry() { return registry_; }

  /// The engine's event tracer — disabled (and empty) unless
  /// ServingConfig::trace or OPAL_TRACE is set. Export with
  /// Tracer::write_chrome_trace / write_step_trace.
  [[nodiscard]] Tracer& tracer() { return trace_; }
  [[nodiscard]] const Tracer& tracer() const { return trace_; }

  /// True when this engine profiles its kernel dispatch
  /// (ServingConfig::profile or OPAL_PROFILE).
  [[nodiscard]] bool profiling() const { return profiling_; }
  /// The run's accumulated kernel/layer profile: per-kernel-kind
  /// call/element/wall-clock counts and per-layer phase timings, merged
  /// serially from the decode fan-out's per-slot scratch each step. All
  /// zero unless profiling(). Serial-phase only, like stats().
  [[nodiscard]] const KernelProfile& profile() const {
    return profile_total_;
  }

  /// The active scheduling policy (never null; FifoScheduler by default).
  [[nodiscard]] const Scheduler& scheduler() const { return *scheduler_; }

  /// Releases up to `min_blocks` of this engine's unreferenced cached
  /// prefix blocks back to the pool; returns the blocks freed (0 when the
  /// prefix cache is off or nothing is reclaimable). Invoked automatically
  /// — for the engine's own pressure, and by sibling engines through
  /// KvBlockPool::request_reclaim when a shared pool runs short — and
  /// callable directly by servers that want to shed cache ahead of load.
  std::size_t reclaim_cached(std::size_t min_blocks);

  /// The engine's prefix cache (null unless enable_prefix_cache). Exposed
  /// so callers can reclaim()/clear() explicitly — e.g. to release a shared
  /// pool's cached blocks to a sibling engine.
  [[nodiscard]] PrefixCache* prefix_cache() { return prefix_cache_.get(); }
  [[nodiscard]] const PrefixCache* prefix_cache() const {
    return prefix_cache_.get();
  }

  /// Observes the logits of every decode, in deterministic slot order
  /// within each step — and, within one sequence's multi-token chunk, in
  /// position order: (request, 0-based position of the fed token, logits).
  /// Speculative verify rows whose tokens were rejected and rolled back do
  /// not fire (their positions do not survive the step), so the observed
  /// (position, logits) stream is exactly the non-speculative run's.
  ///
  /// Contract: the observer fires inside step() after the step's bookkeeping
  /// is complete. It must not call back into this engine (submit/step/
  /// preempt/...) — that would mutate containers step() is iterating. If it
  /// throws, the exception propagates to the step() caller with the engine
  /// in a consistent, continuable state; the remaining observer calls of
  /// that step are skipped.
  using LogitsObserver =
      std::function<void(RequestId, std::size_t, std::span<const float>)>;
  void set_logits_observer(LogitsObserver observer) {
    observer_ = std::move(observer);
  }

  /// Streams generated tokens as they are produced: fires once per SAMPLED
  /// token — never for prompt prefill, replayed tokens after preemption, or
  /// prefix-cache-restored positions, so across any interruption each
  /// generated token is reported exactly once — with (request, 0-based
  /// generated-token index, token, finish reason). `reason` is kNone while
  /// the stream continues and the final reason on its last token, so
  /// callers can harvest incrementally instead of polling result().
  /// Within one step, sequences report in deterministic slot order, each
  /// after its LogitsObserver calls; a speculative verify burst reports its
  /// committed tokens in generation order, so the observed stream is
  /// byte-for-byte the non-speculative one. Same contract as the logits observer:
  /// fires inside step() after bookkeeping, must not call back into the
  /// engine, and a throw propagates with the engine consistent (remaining
  /// observer calls of the step are skipped).
  using TokenObserver =
      std::function<void(RequestId, std::size_t, std::size_t, FinishReason)>;
  void set_token_observer(TokenObserver observer) {
    token_observer_ = std::move(observer);
  }

  /// Per-token diagnostics streamed alongside the token observer.
  struct TokenLogprobInfo {
    std::size_t token = 0;
    /// Normalized log-probability of `token` under the full softmax of the
    /// logits it was sampled from (token_logprob in sampler.h — the
    /// OpenAI-`logprobs`-shaped value; fp32 reference transform, the same
    /// number with or without speculation and the log2 softmax unit).
    float logprob = 0.0f;
    /// Committed by a speculative verify burst (false: plain decode).
    bool speculative = false;
    /// The sampled token matched the draft fed at the next burst row, so
    /// the burst continued through it — per-token acceptance diagnostics
    /// (always false for the burst-final bonus token and for plain decode).
    bool draft_hit = false;
  };

  /// Streams one TokenLogprobInfo per SAMPLED token with (request, 0-based
  /// generated-token index, info) — same cadence, ordering, and exactly-once
  /// guarantee as the TokenObserver (whose contract it shares: fires inside
  /// step() after bookkeeping, right after that token's TokenObserver call;
  /// must not re-enter the engine; a throw propagates with the engine
  /// consistent). Logprobs come from the same logits rows the sampler read,
  /// so the reported values are identical with speculation on or off.
  using TokenLogprobObserver =
      std::function<void(RequestId, std::size_t, const TokenLogprobInfo&)>;
  void set_token_logprob_observer(TokenLogprobObserver observer) {
    logprob_observer_ = std::move(observer);
  }

  [[nodiscard]] const PreparedModel& model() const { return *model_; }
  [[nodiscard]] const KvBlockPool& kv_pool() const { return *kv_pool_; }

 private:
  struct Sequence {
    RequestId id = 0;
    RequestResult result;
    int priority = 0;
    std::size_t target_len = 0;  // prompt_len + max_new_tokens
    std::size_t fed = 0;         // tokens already decoded into the KV cache
    std::size_t tokens_served = 0;  // cumulative decodes (incl. replays)
    std::uint64_t submit_step = 0;  // step counter at submit()
    bool wait_counted = false;      // queue-wait stat recorded
    // Completion is recorded here (not in step-local state) so that an
    // observer throwing on the finishing step cannot strand a completed
    // sequence in the batch and have the next step feed past tokens.end().
    bool done = false;
    // Set when reclaim_queued_prefix downgrades this queued sequence to
    // full recompute. A downgraded admission candidate still re-adopts its
    // cached prefix optimistically (the entries often survive until
    // pressure clears), but must not hold the adoption through a failed
    // capacity check — admit_from_queue drops it and retries — or it
    // would re-pin the very entries it just gave back, fail the same
    // check, downgrade again, and loop forever. Cleared on admission.
    bool downgraded = false;
    // First position (block-aligned) whose KV is no longer a pure function
    // of the token prefix: a keep>0 preemption that truncated mid-block in
    // a quantized kv_mode leaves the boundary block with the grow-only
    // scale its discarded rows produced, which taints every re-decoded
    // position after it. maybe_cache_prefix never indexes columns at or
    // past this watermark; reset when the KV is released for full
    // recompute (replay from scratch is canonical again).
    static constexpr std::size_t kCanonical = static_cast<std::size_t>(-1);
    std::size_t non_canonical_from = kCanonical;
    // Per-request sampling: the policy object (built once at submit) and
    // the RNG-stream checkpoint. While KV is held the live stream sits in
    // state->sampler_state(); sampler_ckpt catches it across a full KV
    // release (release_sequence_kv) and re-seeds the replacement state at
    // admission, so preempt -> readmit resumes the stream at the exact
    // draw (replayed tokens are known tokens and consume no draws).
    SamplingParams sampling;
    std::unique_ptr<Sampler> sampler;
    SamplerState sampler_ckpt;
    // Speculative decoding: the request's drafter (built once at submit,
    // null when speculation is off) and this step's planned burst — the
    // full feed list [frontier, d1..dk], so budgets_[i] ==
    // spec_drafts.size() and a budget shrunk to 1 under pool pressure
    // degrades to feeding spec_drafts[0] (== tokens[fed]) as a plain step.
    // Replanned (cleared) every step; rides on the Sequence so scheduler
    // erases and preemption moves keep it aligned with its owner.
    std::unique_ptr<Drafter> drafter;
    std::vector<std::size_t> spec_drafts;
    // Wall-clock observability (never read by any control path): when the
    // request was submitted, and when its latest sampled token was
    // produced — the anchors for the queue-wait/TTFT/ITL histograms. The
    // step-denominated counterparts (submit_step, wait_counted, and the
    // first-token stat recorded with has_token) stay deterministic.
    std::chrono::steady_clock::time_point submit_tp{};
    std::chrono::steady_clock::time_point last_token_tp{};
    bool has_token = false;  // a token was sampled; last_token_tp is valid
    std::unique_ptr<SequenceState> state;  // kept across preemption
  };

  /// One sampled token of the current step (per-step scratch): enough to
  /// replay the observer cadence after bookkeeping — the pass row whose
  /// logits produced it and its speculative provenance.
  struct EmittedTok {
    std::size_t token = 0;
    std::size_t row = 0;
    bool speculative = false;
    bool draft_hit = false;
  };

  void admit_from_queue();
  /// Resolves pool pressure for the planned budgets by budget-shrink, then
  /// cache-reclaim/preemption/eviction. False: a shared pool's blocks are
  /// transiently held by another engine and this step must stall (no
  /// decode) until they free up.
  bool ensure_kv_capacity(std::vector<std::size_t>& budgets);
  /// Downgrades the youngest queued sequence still holding a kept KV
  /// prefix to full recompute, returning its blocks. False if none holds.
  bool reclaim_queued_prefix();
  /// True once the pool has `target` free blocks, reclaiming LRU prefix
  /// cache entries (this engine's first, then siblings' via the pool) to
  /// get there if needed.
  bool ensure_free_blocks(std::size_t target);
  /// Maps the longest cached prefix of seq's tokens into its fresh state.
  void restore_cached_prefix(Sequence& seq);
  /// Indexes seq's full block columns in the prefix cache (no-op when the
  /// cache is off or nothing block-aligned was fed).
  void maybe_cache_prefix(const Sequence& seq);
  /// Releases seq's KV (caching its prefix first) for full recompute.
  void release_sequence_kv(Sequence& seq);
  void finish(Sequence&& seq, RequestStatus status);
  Sequence* find_running(RequestId id);
  [[nodiscard]] std::size_t blocks_needed(const Sequence& seq) const;
  /// Rebuilds views_ as a SchedRequest snapshot of `container`.
  template <typename Container>
  std::span<const SchedRequest> sched_views(const Container& container);

  std::shared_ptr<const PreparedModel> model_;
  ServingConfig config_;
  MetricsRegistry registry_;
  Tracer trace_;
  /// Metric handles cached at construction (stable for the registry's
  /// lifetime) so the hot path increments pointers, never looks up names.
  struct EngineMetrics {
    Counter* steps = nullptr;
    Counter* stalls = nullptr;
    Counter* admissions = nullptr;
    Counter* preemptions = nullptr;
    Counter* evictions = nullptr;
    Counter* finished = nullptr;
    Counter* budget_shrinks = nullptr;
    Counter* tokens_decoded = nullptr;
    Counter* rows_committed = nullptr;
    Counter* spec_bursts = nullptr;
    Counter* spec_drafted = nullptr;
    Counter* spec_accepted = nullptr;
    Counter* spec_rejected = nullptr;
    Gauge* running = nullptr;
    Gauge* queued = nullptr;
    Histogram* queue_wait_ms = nullptr;
    Histogram* ttft_ms = nullptr;
    Histogram* itl_ms = nullptr;
    Histogram* step_ms = nullptr;
    Histogram* decode_ms = nullptr;
    Histogram* prefill_chunk_ms = nullptr;
    Histogram* spec_verify_ms = nullptr;
  };
  EngineMetrics em_;
  /// profile.* counter handles, registered (and non-null) only while
  /// profiling_ — silent engines' registries keep their exact shape.
  struct ProfileMetrics {
    std::array<Counter*, kKernelKindCount> kernel_calls{};
    std::array<Counter*, kKernelKindCount> kernel_elems{};
    std::array<Counter*, kKernelKindCount> kernel_ns{};
    std::array<Counter*, kLayerPhaseCount> phase_calls{};
    std::array<Counter*, kLayerPhaseCount> phase_ns{};
  };
  ProfileMetrics pm_;
  bool profiling_ = false;
  /// Per-slot profiling scratch (parallel decode phase, disjoint indices)
  /// and the serial-phase run total the slots merge into.
  std::vector<KernelProfile> profile_slots_;
  KernelProfile profile_total_;
  std::size_t kv_row_bytes_ = 0;  // KV bytes one fed row writes (all layers)
  // Per-slot timing scratch: written by the parallel decode phase (distinct
  // indices per slot), observed into histograms serially — the registry
  // itself is never touched off the serial phase.
  std::vector<std::uint64_t> decode_end_us_;
  std::vector<std::uint64_t> decode_dur_us_;
  std::shared_ptr<Scheduler> scheduler_;
  std::unique_ptr<ThreadPool> pool_;  // null when n_threads == 0
  std::shared_ptr<KvBlockPool> kv_pool_;
  std::unique_ptr<PrefixCache> prefix_cache_;  // null unless enabled
  std::deque<Sequence> queue_;
  std::vector<Sequence> batch_;
  std::vector<std::size_t> fed_pos_;       // per-step scratch, reused
  std::vector<std::size_t> budgets_;       // per-step scratch, reused
  std::vector<std::vector<EmittedTok>> emitted_;  // per-slot sampled tokens
  std::vector<std::size_t> blocked_;       // admission candidates w/o blocks
  std::vector<SchedRequest> views_;        // scheduler-snapshot scratch
  std::unordered_map<RequestId, RequestResult> done_;
  std::map<int, PriorityClassStats> prio_stats_;
  std::map<FinishReason, std::size_t> finish_counts_;
  LogitsObserver observer_;
  TokenObserver token_observer_;
  TokenLogprobObserver logprob_observer_;
  RequestId next_id_ = 1;
  std::uint64_t step_counter_ = 0;
};

}  // namespace opal
